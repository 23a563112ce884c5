//go:build !race

package tree

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
