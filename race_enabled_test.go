//go:build race

package iroram

// raceEnabled reports whether the race detector is compiled in; the
// quick-sweep golden skips under it because instrumentation makes the
// full sweep an order of magnitude slower.
const raceEnabled = true
