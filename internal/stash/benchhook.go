package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// TopCacheFindBenchmark is the body of BenchmarkTopCacheFind. It lives in
// the package (not a _test file) so cmd/benchjson snapshots the same code
// via testing.Benchmark; the root bench_test.go wraps it for `make bench`.
//
// One op is the tree-top lookup mix of a demand access: a hit Find, a miss
// Find, then a Remove+Fill churn of the hit block. The churn keeps the lazy
// address index accumulating garbage so its amortized in-place sweeps are
// inside the measurement — and, with the alloccheck gate, proves the index
// never grows in steady state.
func TopCacheFindBenchmark(b *testing.B) {
	o := config.Tiny().ORAM
	tc := NewTopCache(o.Levels, o.TopLevels, o.Z)
	r := rng.New(1)
	leaves := o.LeafCount()
	type resident struct {
		addr block.ID
		leaf block.Leaf
	}
	var pairs []resident
	var id block.ID
	// Load the top buckets the way the controller does: deepest level
	// first along random paths. A few thousand attempts leave every bucket
	// at or near capacity with the survivors' paths on record.
	for attempt := 0; attempt < 4096; attempt++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		for l := o.TopLevels - 1; l >= 0; l-- {
			if tc.Fill(l, leaf, tree.Entry{Addr: id, Leaf: leaf}) {
				pairs = append(pairs, resident{id, leaf})
				id++
				break
			}
		}
	}
	absent := id // never filled: the guaranteed-miss probe
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		l, ok := tc.Find(p.addr, p.leaf)
		if !ok {
			b.Fatal("resident block not found")
		}
		if _, ok := tc.Find(absent, p.leaf); ok {
			b.Fatal("absent block found")
		}
		if !tc.Remove(p.addr, p.leaf) {
			b.Fatal("resident block not removed")
		}
		if !tc.Fill(l, p.leaf, tree.Entry{Addr: p.addr, Leaf: p.leaf}) {
			b.Fatal("refill refused")
		}
	}
}

// IRStashFillBenchmark is the body of BenchmarkIRStashFill, kept in the
// package for the same reason as TopCacheFindBenchmark.
//
// One op is the S-Stash traffic of the IR-ORAM write phase and LLC probe:
// a Fill refused by a set conflict (the dominant Fill outcome on
// write-heavy workloads), a LookupByAddr hit, then a RemoveByAddr+Fill
// churn of the hit block. Every call goes through the memoized MD5 set
// index; the alloccheck gate proves the memo never allocates.
func IRStashFillBenchmark(b *testing.B) {
	o := config.Tiny().ORAM
	s := NewIRStash(o.Levels, o.TopLevels, o.Z, o.SStashWays)
	r := rng.New(1)
	leaves := o.LeafCount()
	type resident struct {
		addr  block.ID
		leaf  block.Leaf
		level int
	}
	var pairs []resident
	var id block.ID
	// Load as TopCacheFindBenchmark does; refusals by full buckets and full
	// sets both leave the store near capacity.
	for attempt := 0; attempt < 4096; attempt++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		for l := o.TopLevels - 1; l >= 0; l-- {
			if s.Fill(l, leaf, tree.Entry{Addr: id, Leaf: leaf}) {
				pairs = append(pairs, resident{id, leaf, l})
				id++
				break
			}
		}
	}
	// Free one bucket pointer (and one way of its set) for the refused
	// Fill, then find a never-stored address whose set has no free way.
	hole := pairs[len(pairs)-1]
	pairs = pairs[:len(pairs)-1]
	if !s.RemoveByAddr(hole.addr) {
		b.Fatal("resident block not removed")
	}
	setFull := func(set int) bool {
		for w := 0; w < s.ways; w++ {
			if !s.slots[set*s.ways+w].valid {
				return false
			}
		}
		return true
	}
	conflict := id
	for !setFull(s.setOf(conflict)) {
		if conflict++; conflict > id+1<<16 {
			b.Fatal("no full S-Stash set")
		}
	}
	refused := tree.Entry{Addr: conflict, Leaf: hole.leaf}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s.Fill(hole.level, hole.leaf, refused) {
			b.Fatal("conflicting block placed")
		}
		p := pairs[i%len(pairs)]
		if _, ok := s.LookupByAddr(p.addr); !ok {
			b.Fatal("resident block not found")
		}
		if !s.RemoveByAddr(p.addr) {
			b.Fatal("resident block not removed")
		}
		if !s.Fill(p.level, p.leaf, tree.Entry{Addr: p.addr, Leaf: p.leaf}) {
			b.Fatal("refill refused")
		}
	}
}
