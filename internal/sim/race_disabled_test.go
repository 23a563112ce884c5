//go:build !race

package sim

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
