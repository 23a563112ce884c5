package cache

import (
	"testing"

	"iroram/internal/rng"
)

// Benchmark bodies for the cache hot paths, exported (rather than living in
// a _test file) so cmd/benchjson can snapshot them programmatically via
// testing.Benchmark while the root bench_test.go wraps them for
// `make bench`. Geometry matches the scaled LLC (1024 sets x 8 ways).

// AccessBenchmark is the body of BenchmarkLLCAccess: a random
// access-or-insert stream against an LLC with LRU tracking enabled — the
// IR-DWB configuration, i.e. the one that pays the per-mutation summary
// refresh on top of mask-based set indexing.
func AccessBenchmark(b *testing.B) {
	c := New(1024, 8)
	c.EnableLRUTracking()
	r := rng.New(3)
	const addrSpace = 1024 * 8 * 4 // 4x capacity: steady miss/evict mix
	for i := 0; i < 50000; i++ {   // warm to full occupancy
		a := r.Uint64n(addrSpace)
		if !c.Access(a, r.Bool(0.3)) {
			c.Insert(a, r.Bool(0.3))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := r.Uint64n(addrSpace)
		if !c.Access(a, r.Bool(0.3)) {
			c.Insert(a, r.Bool(0.3))
		}
	}
}

// ScanBenchmark is the body of BenchmarkDWBScan: the sparse-candidate case
// the Ptr register actually faces — every set full, exactly one set holding
// a dirty LRU line — so each FindCandidate wraps the whole cursor range.
// This is the op the summary bitmaps turn from an O(sets) set-by-set sweep
// into a 16-word bit scan.
func ScanBenchmark(b *testing.B) {
	c := New(1024, 8)
	r := rng.New(4)
	s := NewDWBScanner(c, func() int { return r.Intn(1024) })
	for set := 0; set < 1024; set++ {
		for w := 0; w < 8; w++ {
			c.Insert(uint64(set+1024*w), false)
		}
	}
	c.MarkDirty(lruAddrOf(c, 511)) // the lone candidate
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.FindCandidate(0); !ok {
			b.Fatal("candidate disappeared")
		}
	}
}

func lruAddrOf(c *Cache, si int) uint64 {
	a, ok := c.LRU(si)
	if !ok {
		panic("cache: benchmark set not full")
	}
	return a
}
