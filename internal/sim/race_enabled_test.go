//go:build race

package sim

// raceEnabled reports whether the race detector is compiled in; allocation
// tests skip under it because instrumentation changes escape analysis.
const raceEnabled = true
