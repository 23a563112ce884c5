package stash

import (
	"strings"
	"testing"
	"testing/quick"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

func TestFStashInsertLookupRemove(t *testing.T) {
	s := NewFStash(16)
	s.Insert(tree.Entry{Addr: 1, Leaf: 10})
	s.Insert(tree.Entry{Addr: 2, Leaf: 20})
	if l, ok := s.Lookup(1); !ok || l != 10 {
		t.Fatalf("Lookup(1) = %d,%v", l, ok)
	}
	if !s.Remove(1) || s.Remove(1) {
		t.Fatal("Remove semantics wrong")
	}
	if _, ok := s.Lookup(1); ok {
		t.Fatal("removed block still present")
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestFStashDuplicateInsertUpdatesLeaf(t *testing.T) {
	s := NewFStash(16)
	s.Insert(tree.Entry{Addr: 1, Leaf: 10})
	s.Insert(tree.Entry{Addr: 1, Leaf: 11})
	if s.Len() != 1 {
		t.Fatalf("duplicate insert grew stash to %d", s.Len())
	}
	if l, _ := s.Lookup(1); l != 11 {
		t.Errorf("leaf = %d, want 11", l)
	}
}

// TestFStashCheckMembershipCatchesBitFaults: a stashed block whose
// membership bit is clear, and a set bit for a block that is not stashed,
// each fail the self-check CheckInvariants relies on.
func TestFStashCheckMembershipCatchesBitFaults(t *testing.T) {
	s := NewFStash(128)
	for _, a := range []block.ID{3, 64, 127} {
		s.Insert(tree.Entry{Addr: a, Leaf: 0})
	}
	if err := s.CheckMembership(); err != nil {
		t.Fatal(err)
	}
	s.held[1] &^= 1 // block 64: bit 0 of word 1
	if err := s.CheckMembership(); err == nil || !strings.Contains(err.Error(), "no membership bit") {
		t.Fatalf("with block 64's bit clear: CheckMembership = %v", err)
	}
	s.held[1] |= 1
	s.held[0] |= 1 << 5
	if err := s.CheckMembership(); err == nil || !strings.Contains(err.Error(), "4 membership bits set for 3") {
		t.Fatalf("with a stale bit for block 5: CheckMembership = %v", err)
	}
}

func TestFStashOverfull(t *testing.T) {
	s := NewFStash(16)
	for i := 0; i < 6; i++ {
		s.Insert(tree.Entry{Addr: block.ID(i), Leaf: 0})
	}
	if !s.Overfull(4) || s.Overfull(6) {
		t.Error("Overfull thresholds wrong")
	}
}

func TestFStashEachDeterministic(t *testing.T) {
	build := func() []block.ID {
		s := NewFStash(16)
		for i := 0; i < 8; i++ {
			s.Insert(tree.Entry{Addr: block.ID(i), Leaf: 0})
		}
		s.Remove(3)
		s.Remove(0)
		var order []block.ID
		s.Each(func(e tree.Entry) { order = append(order, e.Addr) })
		return order
	}
	a, b := build(), build()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("iteration order not deterministic")
		}
	}
}

const testLevels = 14
const testTop = 5

func topZ() []int {
	z := make([]int, testLevels)
	for i := range z {
		z[i] = 4
	}
	return z
}

func testStores() map[string]TopStore {
	return map[string]TopStore{
		"dedicated": NewTopCache(testLevels, testTop, topZ()),
		"ir-stash":  NewIRStash(testLevels, testTop, topZ(), 4),
	}
}

func TestTopStoreFillReadRoundTrip(t *testing.T) {
	for name, ts := range testStores() {
		leaf := block.Leaf(12)
		if !ts.Fill(0, leaf, tree.Entry{Addr: 1, Leaf: 500}) {
			t.Fatalf("%s: root fill refused", name)
		}
		if !ts.Fill(2, leaf, tree.Entry{Addr: 2, Leaf: leaf}) {
			t.Fatalf("%s: level-2 fill refused", name)
		}
		if ts.Len() != 2 {
			t.Fatalf("%s: Len = %d", name, ts.Len())
		}
		got := ts.ReadPath(leaf, nil)
		if len(got) != 2 {
			t.Fatalf("%s: ReadPath returned %d", name, len(got))
		}
		if ts.Len() != 0 {
			t.Errorf("%s: store not drained", name)
		}
	}
}

func TestTopStoreFindRemove(t *testing.T) {
	for name, ts := range testStores() {
		leaf := block.Leaf(3)
		ts.Fill(1, leaf, tree.Entry{Addr: 42, Leaf: leaf})
		if l, ok := ts.Find(42, leaf); !ok || l != 1 {
			t.Fatalf("%s: Find = %d,%v", name, l, ok)
		}
		// A leaf in the other half of the tree shares only the root.
		other := block.Leaf(1 << (testLevels - 2))
		if _, ok := ts.Find(42, other); ok {
			t.Errorf("%s: found block on unrelated path", name)
		}
		if !ts.Remove(42, leaf) || ts.Remove(42, leaf) {
			t.Errorf("%s: Remove semantics wrong", name)
		}
		if ts.OccupiedAt(1) != 0 {
			t.Errorf("%s: occupancy leak", name)
		}
	}
}

func TestTopStoreBucketCapacity(t *testing.T) {
	for name, ts := range testStores() {
		leaf := block.Leaf(0)
		placed := 0
		for i := 0; i < 10; i++ {
			if ts.Fill(0, leaf, tree.Entry{Addr: block.ID(100 + i), Leaf: block.Leaf(i)}) {
				placed++
			}
		}
		if placed > 4 {
			t.Errorf("%s: root bucket accepted %d > Z=4 blocks", name, placed)
		}
	}
}

func TestTopStoreCapacityAt(t *testing.T) {
	for name, ts := range testStores() {
		if got := ts.CapacityAt(3); got != 8*4 {
			t.Errorf("%s: CapacityAt(3) = %d, want 32", name, got)
		}
	}
}

func TestTopCachePanicsOnWrongSubtree(t *testing.T) {
	ts := NewTopCache(testLevels, testTop, topZ())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	// Level 4 bucket of leaf 0 vs a leaf from the other half of the tree.
	ts.Fill(4, 0, tree.Entry{Addr: 1, Leaf: 1 << (testLevels - 2)})
}

func TestIRStashAddrIndex(t *testing.T) {
	s := NewIRStash(testLevels, testTop, topZ(), 4)
	leaf := block.Leaf(7)
	s.Fill(2, leaf, tree.Entry{Addr: 77, Leaf: leaf})
	if l, ok := s.LookupByAddr(77); !ok || l != leaf {
		t.Fatalf("LookupByAddr = %d,%v", l, ok)
	}
	if _, ok := s.LookupByAddr(78); ok {
		t.Error("phantom hit")
	}
	if !s.Remove(77, leaf) || s.Remove(77, leaf) {
		t.Error("Remove semantics wrong")
	}
	if _, ok := s.LookupByAddr(77); ok {
		t.Error("address index still finds removed block")
	}
	if _, ok := s.Find(77, leaf); ok {
		t.Error("TT still points at removed block")
	}
}

func TestIRStashConflictRefusal(t *testing.T) {
	// With 1-way sets, two distinct addresses hashing to the same set
	// conflict. Fill many root-adjacent buckets and verify refusals are
	// counted and the store never lies about placement. The seed is fixed,
	// so the conflicts are too.
	s := NewIRStash(testLevels, testTop, topZ(), 1)
	r := rng.New(4)
	placed := 0
	for i := 0; i < 200; i++ {
		leaf := block.Leaf(r.Uint64n(1 << (testLevels - 1)))
		level := int(r.Uint64n(testTop))
		lenBefore, occBefore, conflictsBefore := s.Len(), s.OccupiedAt(level), s.Conflicts
		if s.Fill(level, leaf, tree.Entry{Addr: block.ID(1000 + i), Leaf: leaf}) {
			placed++
			continue
		}
		if s.Len() != lenBefore || s.OccupiedAt(level) != occBefore {
			t.Fatalf("refused Fill changed the store: Len %d->%d, OccupiedAt(%d) %d->%d",
				lenBefore, s.Len(), level, occBefore, s.OccupiedAt(level))
		}
		if s.Conflicts > conflictsBefore+1 {
			t.Fatalf("one refusal counted %d conflicts", s.Conflicts-conflictsBefore)
		}
	}
	if placed == 0 {
		t.Fatal("nothing placed")
	}
	if s.Len() != placed {
		t.Errorf("Len %d != placed %d", s.Len(), placed)
	}
	if s.Conflicts == 0 {
		t.Error("no set conflicts with 1-way sets")
	}
}

func TestIRStashHashSpreads(t *testing.T) {
	s := NewIRStash(testLevels, testTop, topZ(), 4)
	counts := make([]int, s.sets)
	for a := block.ID(0); a < 4096; a++ {
		counts[s.setOf(a)]++
	}
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := 4096 / s.sets
	if max > mean*4 {
		t.Errorf("MD5 set index skewed: max %d vs mean %d", max, mean)
	}
}

// TestTopStoreConservation: across random fill/read cycles both designs
// conserve blocks and stay within capacity.
func TestTopStoreConservation(t *testing.T) {
	makers := map[string]func() TopStore{
		"dedicated": func() TopStore { return NewTopCache(testLevels, testTop, topZ()) },
		"ir-stash":  func() TopStore { return NewIRStash(testLevels, testTop, topZ(), 4) },
	}
	for name, mk := range makers {
		check := func(seed uint64) bool {
			ts := mk()
			r := rng.New(seed)
			inStore := 0
			for op := 0; op < 300; op++ {
				leaf := block.Leaf(r.Uint64n(1 << (testLevels - 1)))
				if r.Float64() < 0.6 {
					level := int(r.Uint64n(testTop))
					// A block legal at this bucket: borrow the path's leaf.
					if ts.Fill(level, leaf, tree.Entry{Addr: block.ID(r.Uint64n(1 << 30)), Leaf: leaf}) {
						inStore++
					}
				} else {
					inStore -= len(ts.ReadPath(leaf, nil))
				}
				if ts.Len() != inStore {
					return false
				}
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 20}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
