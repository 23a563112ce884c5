//go:build !race

package cache

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
