package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// TestFStashIndexDifferential exercises the stash through its public
// surface against a shadow map[block.ID]block.Leaf, so the membership
// bitmap is validated where it actually runs: Insert/Lookup/Remove with
// swap-with-last slot churn, with up to every block of a 500-block
// universe stashed at once.
func TestFStashIndexDifferential(t *testing.T) {
	r := rng.New(17)
	s := NewFStash(500)
	shadow := map[block.ID]block.Leaf{}
	for op := 0; op < 40000; op++ {
		id := block.ID(r.Uint64n(500))
		switch {
		case r.Float64() < 0.5:
			leaf := block.Leaf(r.Uint64n(1 << 20))
			s.Insert(tree.Entry{Addr: id, Leaf: leaf})
			shadow[id] = leaf
		case r.Float64() < 0.5:
			got, ok := s.Lookup(id)
			want, wantOK := shadow[id]
			if ok != wantOK || (ok && got != want) {
				t.Fatalf("op %d: Lookup(%v) = %v,%v want %v,%v", op, id, got, ok, want, wantOK)
			}
		default:
			_, wantOK := shadow[id]
			if got := s.Remove(id); got != wantOK {
				t.Fatalf("op %d: Remove(%v) = %v want %v", op, id, got, wantOK)
			}
			delete(shadow, id)
		}
		if s.Len() != len(shadow) {
			t.Fatalf("op %d: Len %d want %d", op, s.Len(), len(shadow))
		}
	}
	seen := map[block.ID]block.Leaf{}
	s.Each(func(e tree.Entry) { seen[e.Addr] = e.Leaf })
	if len(seen) != len(shadow) {
		t.Fatalf("iteration saw %d entries, shadow has %d", len(seen), len(shadow))
	}
	for id, want := range shadow {
		if seen[id] != want {
			t.Fatalf("entry %v: leaf %v want %v", id, seen[id], want)
		}
	}
}
