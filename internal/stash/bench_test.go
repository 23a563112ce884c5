package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// The tree-top stores' hot paths as warmed rigs. Each rig returns one op;
// the same op is timed by its BenchmarkX and gated at 0 allocs/op by its
// TestXZeroAllocs.

// resident is a block a rig placed in a tree-top store.
type resident struct {
	addr  block.ID
	leaf  block.Leaf
	level int
}

// loadTopStore fills ts the way the controller does: each block goes to
// the deepest level with room along a random path. A few thousand
// attempts leave every bucket (and, in IR-Stash, every set) at or near
// capacity. It returns the placed blocks and the first never-used address.
func loadTopStore(ts TopStore, o config.ORAM) ([]resident, block.ID) {
	r := rng.New(1)
	leaves := o.LeafCount()
	var placed []resident
	var id block.ID
	for attempt := 0; attempt < 4096; attempt++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		for l := o.TopLevels - 1; l >= 0; l-- {
			if ts.Fill(l, leaf, tree.Entry{Addr: id, Leaf: leaf}) {
				placed = append(placed, resident{id, leaf, l})
				id++
				break
			}
		}
	}
	return placed, id
}

// topCacheFindRig loads a Tiny tree-top cache. Its op is the tree-top
// lookup mix of a demand access: a hit Find, a miss Find, then a Remove of
// the hit block and a Fill of a fresh address into the freed slot.
func topCacheFindRig(tb testing.TB) func() {
	o := config.Tiny().ORAM
	tc := NewTopCache(o.Levels, o.TopLevels, o.Z)
	pairs, absent := loadTopStore(tc, o)
	fresh := absent + 1
	i := 0
	return func() {
		p := &pairs[i%len(pairs)]
		i++
		l, ok := tc.Find(p.addr, p.leaf)
		if !ok {
			tb.Fatal("resident block not found")
		}
		if _, ok := tc.Find(absent, p.leaf); ok {
			tb.Fatal("absent block found")
		}
		if !tc.Remove(p.addr, p.leaf) {
			tb.Fatal("resident block not removed")
		}
		p.addr, fresh = fresh, fresh+1
		if !tc.Fill(l, p.leaf, tree.Entry{Addr: p.addr, Leaf: p.leaf}) {
			tb.Fatal("fill of the freed slot refused")
		}
	}
}

// irStashFillRig loads a Tiny IR-Stash, frees one bucket pointer (and one
// way of its set), and finds a never-stored address whose set has no free
// way. Its op is the S-Stash traffic of the IR-ORAM write phase and LLC
// probe: a Fill refused by that set conflict (the dominant Fill outcome on
// write-heavy workloads), a LookupByAddr hit, then a Remove+Fill churn of
// the hit block along its path. Fill and LookupByAddr go through the
// memoized MD5 set index.
func irStashFillRig(tb testing.TB) func() {
	o := config.Tiny().ORAM
	s := NewIRStash(o.Levels, o.TopLevels, o.Z, o.SStashWays)
	pairs, id := loadTopStore(s, o)
	hole := pairs[len(pairs)-1]
	pairs = pairs[:len(pairs)-1]
	if !s.Remove(hole.addr, hole.leaf) {
		tb.Fatal("resident block not removed")
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
			tb.Fatal("no full S-Stash set")
		}
	}
	refused := tree.Entry{Addr: conflict, Leaf: hole.leaf}
	i := 0
	return func() {
		if s.Fill(hole.level, hole.leaf, refused) {
			tb.Fatal("conflicting block placed")
		}
		p := pairs[i%len(pairs)]
		i++
		if _, ok := s.LookupByAddr(p.addr); !ok {
			tb.Fatal("resident block not found")
		}
		if !s.Remove(p.addr, p.leaf) {
			tb.Fatal("resident block not removed")
		}
		if !s.Fill(p.level, p.leaf, tree.Entry{Addr: p.addr, Leaf: p.leaf}) {
			tb.Fatal("refill refused")
		}
	}
}

func BenchmarkTopCacheFind(b *testing.B) {
	op := topCacheFindRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

func BenchmarkIRStashFill(b *testing.B) {
	op := irStashFillRig(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestTopCacheFindZeroAllocs gates BenchmarkTopCacheFind's op. The slot
// arrays are fixed-size, so nothing is amortized; 1000 runs cycle through
// all 124 residents eight times.
func TestTopCacheFindZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, topCacheFindRig(t)); avg != 0 {
		t.Errorf("tree-top lookup mix allocates %.2f times per op, want 0", avg)
	}
}

// TestIRStashFillZeroAllocs gates BenchmarkIRStashFill's op. The S-Stash
// and its set memo are fixed-size, so nothing is amortized; 1000 runs
// cycle through all 65 residents 15 times.
func TestIRStashFillZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, irStashFillRig(t)); avg != 0 {
		t.Errorf("S-Stash fill mix allocates %.2f times per op, want 0", avg)
	}
}
