//go:build !race

package dram

// raceEnabled reports whether the race detector is compiled in.
const raceEnabled = false
