//go:build !race

package stash

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
