// Package rng provides a small, fast, deterministic pseudo-random number
// generator used throughout the simulator.
//
// Determinism matters for a reproduction: given a seed, every experiment in
// this repository produces byte-identical statistics. The generator is
// xoshiro256** seeded through splitmix64, the combination recommended by the
// xoshiro authors. It is NOT cryptographically secure: an ORAM controller
// deployed in hardware must draw its leaf remaps from a CSPRNG. The simulator
// needs only uniform, reproducible leaves.
package rng

import "math/bits"

// Source is a deterministic xoshiro256** generator.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via splitmix64 so that nearby seeds
// yield uncorrelated streams.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	// A xoshiro state of all zeros is invalid; splitmix64 cannot produce
	// four zero outputs in a row, but guard anyway.
	if src.s[0]|src.s[1]|src.s[2]|src.s[3] == 0 {
		src.s[0] = 1
	}
	return &src
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next value of the stream.
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Uint64n returns a uniform value in [0, n). It panics if n == 0.
func (r *Source) Uint64n(n uint64) uint64 {
	if n == 0 {
		panic("rng: Uint64n with n == 0")
	}
	// Lemire's nearly-divisionless bounded generation with rejection.
	for {
		hi, lo := bits.Mul64(r.Uint64(), n)
		if lo >= n || lo >= uint64(-int64(n))%n {
			return hi
		}
	}
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with n <= 0")
	}
	return int(r.Uint64n(uint64(n)))
}

// Float64 returns a uniform value in [0, 1).
func (r *Source) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Fork derives an independent child stream. Children of the same parent at
// different points of the parent stream are uncorrelated.
func (r *Source) Fork() *Source { return New(r.Uint64()) }
