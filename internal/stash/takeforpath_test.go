package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// TakeForPath is the removal-scan form of the deepest-first eviction's
// classification, kept as the oracle for DrainForPath: one walk over the
// stash removes every entry placeable on the path of leaf at level lowLevel
// or deeper and appends it to perLevel[d], where d is the entry's deepest
// placeable level (tree.DeepestLevel). Entries land in the order the
// removal scan visits them (storage order with swap-with-last dynamics).
// perLevel must have at least levels slices; slices are appended to.
func (s *FStash) TakeForPath(leaf block.Leaf, lowLevel, levels int, perLevel [][]tree.Entry) {
	for i := 0; i < len(s.items); {
		e := s.items[i]
		d := tree.DeepestLevel(leaf, e.Leaf, levels)
		if d < lowLevel {
			i++
			continue
		}
		perLevel[d] = append(perLevel[d], e)
		s.Remove(e.Addr) // swaps the last entry into slot i; do not advance
	}
}

// TestTakeForPathClassifies checks the single-pass scan against the
// definition: every entry placeable at lowLevel or deeper is removed and
// filed under exactly its deepest placeable level; shallower entries stay.
func TestTakeForPathClassifies(t *testing.T) {
	const levels = 6
	leaves := uint64(1) << (levels - 1)
	r := rng.New(9)
	for trial := 0; trial < 200; trial++ {
		s := NewFStash(64)
		n := int(r.Uint64n(40))
		entries := make([]tree.Entry, 0, n)
		for i := 0; i < n; i++ {
			e := tree.Entry{Addr: block.ID(i), Leaf: block.Leaf(r.Uint64n(leaves))}
			entries = append(entries, e)
			s.Insert(e)
		}
		pathLeaf := block.Leaf(r.Uint64n(leaves))
		lowLevel := int(r.Uint64n(levels))

		perLevel := make([][]tree.Entry, levels)
		s.TakeForPath(pathLeaf, lowLevel, levels, perLevel)

		taken := 0
		for l, list := range perLevel {
			for _, e := range list {
				taken++
				if d := tree.DeepestLevel(pathLeaf, e.Leaf, levels); d != l {
					t.Fatalf("entry %v (leaf %d) filed at level %d, deepest placeable is %d",
						e.Addr, e.Leaf, l, d)
				}
				if l < lowLevel {
					t.Fatalf("entry %v filed below lowLevel %d", e.Addr, lowLevel)
				}
				if _, still := s.Lookup(e.Addr); still {
					t.Fatalf("taken entry %v still stashed", e.Addr)
				}
			}
		}
		for _, e := range entries {
			if d := tree.DeepestLevel(pathLeaf, e.Leaf, levels); d < lowLevel {
				if _, still := s.Lookup(e.Addr); !still {
					t.Fatalf("unplaceable entry %v (deepest %d < lowLevel %d) was removed",
						e.Addr, d, lowLevel)
				}
			}
		}
		if taken+s.Len() != n {
			t.Fatalf("entries lost: took %d, %d remain, started with %d", taken, s.Len(), n)
		}
	}
}

// TestTakeForPathReusesLists pins the zero-allocation contract: reused
// per-level slices are appended to, so the caller's reset-and-reuse pattern
// must see only this call's entries.
func TestTakeForPathReusesLists(t *testing.T) {
	const levels = 4
	s := NewFStash(16)
	s.Insert(tree.Entry{Addr: 1, Leaf: 7})
	perLevel := make([][]tree.Entry, levels)
	perLevel[levels-1] = append(perLevel[levels-1], tree.Entry{Addr: 99, Leaf: 0})
	perLevel[levels-1] = perLevel[levels-1][:0] // caller reset, stale backing
	s.TakeForPath(7, 0, levels, perLevel)
	if len(perLevel[levels-1]) != 1 || perLevel[levels-1][0].Addr != 1 {
		t.Fatalf("perLevel[leaf] = %v, want exactly block 1", perLevel[levels-1])
	}
}

// TestDrainForPathMatchesTakeForPath is DrainForPath's direct oracle: on a
// random resident stash (with removals, so storage order has been through
// swap-with-last) plus random just-gathered extra entries, DrainForPath
// must file exactly the entries, in exactly the per-level order, that
// inserting extra and then running the TakeForPath removal scan from level
// 0 files — with GatherFlag riding along on the flagged extras only. It
// must leave no drained address's membership bit set, which the next round
// (re-inserting overlapping addresses into the same stashes) also
// exercises.
func TestDrainForPathMatchesTakeForPath(t *testing.T) {
	const levels = 7
	leaves := uint64(1) << (levels - 1)
	r := rng.New(17)
	for trial := 0; trial < 100; trial++ {
		drain, oracle := NewFStash(256), NewFStash(256)
		for round := 0; round < 4; round++ {
			// Resident entries, identical history on both stashes.
			resident := map[block.ID]bool{}
			for i, n := 0, int(r.Uint64n(48)); i < n; i++ {
				e := tree.Entry{Addr: block.ID(r.Uint64n(128)), Leaf: block.Leaf(r.Uint64n(leaves))}
				drain.Insert(e)
				oracle.Insert(e)
				resident[e.Addr] = true
			}
			for i, n := 0, int(r.Uint64n(8)); i < n; i++ {
				a := block.ID(r.Uint64n(128))
				if drain.Remove(a) != oracle.Remove(a) {
					t.Fatalf("trial %d round %d: Remove(%v) disagrees before the drain", trial, round, a)
				}
				delete(resident, a)
			}
			// Extra entries: never stashed, a random subset flagged the way
			// the fused gather walk flags them.
			var extra []tree.Entry
			flagged := map[block.ID]bool{}
			for i, n := 0, int(r.Uint64n(24)); i < n; i++ {
				a := block.ID(128 + r.Uint64n(128))
				if resident[a] || flagged[a] {
					continue
				}
				resident[a] = true
				e := tree.Entry{Addr: a, Leaf: block.Leaf(r.Uint64n(leaves))}
				if r.Uint64n(2) == 0 {
					flagged[a] = true
					e.Leaf |= tree.GatherFlag
				}
				extra = append(extra, e)
			}

			leaf := block.Leaf(r.Uint64n(leaves))
			got := make([][]tree.Entry, levels)
			want := make([][]tree.Entry, levels)
			drain.DrainForPath(leaf, levels, got, extra)
			for _, e := range extra {
				e.Leaf &^= tree.GatherFlag
				oracle.Insert(e)
			}
			oracle.TakeForPath(leaf, 0, levels, want)

			for l := 0; l < levels; l++ {
				if len(got[l]) != len(want[l]) {
					t.Fatalf("trial %d round %d level %d: drained %d entries, oracle %d",
						trial, round, l, len(got[l]), len(want[l]))
				}
				for i, e := range got[l] {
					if hasFlag := e.Leaf&tree.GatherFlag != 0; hasFlag != flagged[e.Addr] {
						t.Fatalf("trial %d round %d: %v carries GatherFlag=%v, input had %v",
							trial, round, e.Addr, hasFlag, flagged[e.Addr])
					}
					e.Leaf &^= tree.GatherFlag
					if e != want[l][i] {
						t.Fatalf("trial %d round %d level %d slot %d: drained %+v, oracle %+v",
							trial, round, l, i, e, want[l][i])
					}
				}
			}
			if drain.Len() != 0 || oracle.Len() != 0 {
				t.Fatalf("trial %d round %d: %d / %d entries left after a level-0 drain",
					trial, round, drain.Len(), oracle.Len())
			}
			if err := drain.CheckMembership(); err != nil {
				t.Fatalf("trial %d round %d: %v", trial, round, err)
			}
			for _, list := range got {
				for _, e := range list {
					if drain.held[e.Addr/64]&(1<<(e.Addr%64)) != 0 {
						t.Fatalf("trial %d round %d: drained %v keeps its membership bit", trial, round, e.Addr)
					}
					if _, ok := drain.Lookup(e.Addr); ok {
						t.Fatalf("trial %d round %d: drained %v still found by Lookup", trial, round, e.Addr)
					}
				}
			}
		}
	}
}
