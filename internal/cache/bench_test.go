package cache

import (
	"testing"

	"iroram/internal/rng"
)

// The LLC hot paths as warmed rigs on the scaled LLC geometry (1024 sets x
// 8 ways). Each rig returns one op; the same op is timed by its BenchmarkX
// and gated at 0 allocs/op by its TestXZeroAllocs.

// llcAccessRig warms an LLC with LRU tracking enabled (the IR-DWB
// configuration, which pays the per-mutation summary refresh on top of
// mask-based set indexing) to full occupancy. Its op is one random
// access-or-insert over four times the capacity: a steady miss/evict mix.
func llcAccessRig() func() {
	c := New(1024, 8)
	c.EnableLRUTracking()
	r := rng.New(3)
	const addrSpace = 1024 * 8 * 4
	op := func() {
		a := r.Uint64n(addrSpace)
		if !c.Access(a, r.Float64() < 0.3) {
			c.Insert(a, r.Float64() < 0.3)
		}
	}
	for i := 0; i < 50000; i++ {
		op()
	}
	return op
}

// dwbScanRig fills every set and dirties exactly one set's LRU line: the
// sparse-candidate case the Ptr register actually faces. Its op is one
// FindCandidate, which wraps the whole cursor range back to that set; the
// summary bitmaps turn that O(sets) sweep into a 16-word bit scan.
func dwbScanRig(tb testing.TB) func() {
	c := New(1024, 8)
	r := rng.New(4)
	s := NewDWBScanner(c, func() int { return r.Intn(1024) })
	for set := 0; set < 1024; set++ {
		for w := 0; w < 8; w++ {
			c.Insert(uint64(set+1024*w), false)
		}
	}
	lru, ok := c.LRU(511)
	if !ok {
		tb.Fatal("set 511 not full")
	}
	c.MarkDirty(lru)
	return func() {
		if _, ok := s.FindCandidate(0); !ok {
			tb.Fatal("candidate disappeared")
		}
	}
}

func BenchmarkLLCAccess(b *testing.B) {
	op := llcAccessRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkDWBScan(b *testing.B) {
	op := dwbScanRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestLLCAccessZeroAllocs gates BenchmarkLLCAccess's op. The cache is
// fixed-size; the warm-up already evicts, so every run is steady state.
func TestLLCAccessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, llcAccessRig()); avg != 0 {
		t.Errorf("LLC access allocates %.2f times per op, want 0", avg)
	}
}

// TestDWBScanZeroAllocs gates BenchmarkDWBScan's op. Every run wraps the
// cursor once; nothing is amortized.
func TestDWBScanZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, dwbScanRig(t)); avg != 0 {
		t.Errorf("DWB candidate scan allocates %.2f times per op, want 0", avg)
	}
}
