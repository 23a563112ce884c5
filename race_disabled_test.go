//go:build !race

package iroram

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
