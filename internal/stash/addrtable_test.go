package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// TestAddrTableDifferential drives a long randomized Put/Get/Delete stream
// through the open-addressed table and a shadow Go map in lockstep. The
// key space is kept narrow relative to the op count so probe chains
// overlap hard and backward-shift deletion is exercised in every shape
// (head, middle, wrapped-around tail of a chain).
func TestAddrTableDifferential(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3, 99} {
		r := rng.New(seed)
		tab := NewAddrTable(32)
		shadow := map[block.ID]uint32{}
		for op := 0; op < 60000; op++ {
			id := block.ID(r.Uint64n(300))
			switch {
			case r.Float64() < 0.45:
				v := uint32(r.Uint64n(1 << 30))
				tab.Put(id, v)
				shadow[id] = v
			case r.Float64() < 0.6:
				got, ok := tab.Get(id)
				want, wantOK := shadow[id]
				if ok != wantOK || (ok && got != want) {
					t.Fatalf("seed %d op %d: Get(%v) = %d,%v want %d,%v",
						seed, op, id, got, ok, want, wantOK)
				}
			default:
				if gotDel, wantDel := tab.Delete(id), hasKey(shadow, id); gotDel != wantDel {
					t.Fatalf("seed %d op %d: Delete(%v) = %v want %v",
						seed, op, id, gotDel, wantDel)
				}
				delete(shadow, id)
			}
			if tab.Len() != len(shadow) {
				t.Fatalf("seed %d op %d: Len %d want %d", seed, op, tab.Len(), len(shadow))
			}
		}
		// Final full sweep: every shadow key resolves, absent keys miss.
		for id, want := range shadow {
			if got, ok := tab.Get(id); !ok || got != want {
				t.Fatalf("seed %d final: Get(%v) = %d,%v want %d,true", seed, id, got, ok, want)
			}
		}
		for id := block.ID(300); id < 400; id++ {
			if _, ok := tab.Get(id); ok {
				t.Fatalf("seed %d: phantom key %v", seed, id)
			}
		}
	}
}

func hasKey(m map[block.ID]uint32, id block.ID) bool {
	_, ok := m[id]
	return ok
}

// TestAddrTableGrowth checks the transient-overflow path: a table pre-sized
// for a small capacity hint absorbs far more entries than the hint by
// doubling, and every entry survives each rehash.
func TestAddrTableGrowth(t *testing.T) {
	tab := NewAddrTable(4) // 16 slots; grow bound 13
	const n = 5000
	for i := 0; i < n; i++ {
		tab.Put(block.ID(i*7), uint32(i))
	}
	if tab.Len() != n {
		t.Fatalf("Len = %d want %d", tab.Len(), n)
	}
	for i := 0; i < n; i++ {
		if v, ok := tab.Get(block.ID(i * 7)); !ok || v != uint32(i) {
			t.Fatalf("post-growth Get(%d) = %d,%v want %d,true", i*7, v, ok, i)
		}
	}
	// Shrink back down by deleting everything; the table must end empty
	// and still functional.
	for i := 0; i < n; i++ {
		if !tab.Delete(block.ID(i * 7)) {
			t.Fatalf("Delete(%d) reported absent", i*7)
		}
	}
	if tab.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tab.Len())
	}
	tab.Put(7, 42)
	if v, ok := tab.Get(7); !ok || v != 42 {
		t.Fatal("table unusable after full drain")
	}
}

// TestFStashIndexDifferential exercises the stash through its public
// surface against a shadow map[block.ID]block.Leaf, so the membership
// index is validated where it actually runs: Insert/Lookup/Remove with
// swap-with-last slot churn, at occupancies well past the provisioned
// capacity (transient overflow).
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

// TestAddrTableZeroValue pins that a stored zero value is distinguishable
// from absence (ρ's membership table stores leaf 0 as a value).
func TestAddrTableZeroValue(t *testing.T) {
	tab := NewAddrTable(8)
	tab.Put(5, 0)
	if v, ok := tab.Get(5); !ok || v != 0 {
		t.Fatalf("Get(5) = %d,%v want 0,true", v, ok)
	}
	if _, ok := tab.Get(6); ok {
		t.Fatal("absent key reported present")
	}
}

// TestAddrTableRejectsInvalidKey: block.Invalid is the empty-slot sentinel.
func TestAddrTableRejectsInvalidKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on block.Invalid key")
		}
	}()
	NewAddrTable(8).Put(block.Invalid, 1)
}
