package tree

import (
	"testing"
	"testing/quick"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
)

func tinyORAM() config.ORAM {
	o := config.Tiny().ORAM
	return o
}

func TestNewEmpty(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	if tr.Occupied() != 0 {
		t.Fatalf("new tree occupied %d", tr.Occupied())
	}
	if got := tr.ReadPath(0, nil); len(got) != 0 {
		t.Fatalf("empty tree path returned %d blocks", len(got))
	}
}

func TestPlaceAndFind(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	e := Entry{Addr: 42, Leaf: 5}
	level, ok := tr.Place(e)
	if !ok {
		t.Fatal("place failed on empty tree")
	}
	if level != o.Levels-1 {
		t.Errorf("placed at level %d, want leaf level %d", level, o.Levels-1)
	}
	if l, ok := tr.Find(42, 5); !ok || l != level {
		t.Errorf("Find = %d,%v", l, ok)
	}
	if _, ok := tr.Find(42, 6); ok && !SameSubtree(5, 6, o.Levels-1, o.Levels) {
		t.Error("found block on wrong path at leaf level")
	}
}

func TestReadPathRemovesBlocks(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	tr.Place(Entry{Addr: 1, Leaf: 9})
	tr.Place(Entry{Addr: 2, Leaf: 9})
	got := tr.ReadPath(9, nil)
	if len(got) != 2 {
		t.Fatalf("read %d blocks, want 2", len(got))
	}
	if tr.Occupied() != 0 {
		t.Errorf("occupied %d after draining path", tr.Occupied())
	}
	if got2 := tr.ReadPath(9, nil); len(got2) != 0 {
		t.Error("second read should find nothing")
	}
}

func TestReadPathOnlyTouchesOwnPath(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	leaves := o.LeafCount()
	// Two leaves in different halves of the tree share no bucket below the
	// on-chip levels when their top bits differ.
	a := block.Leaf(0)
	b := block.Leaf(leaves - 1)
	tr.Place(Entry{Addr: 1, Leaf: a})
	tr.Place(Entry{Addr: 2, Leaf: b})
	got := tr.ReadPath(a, nil)
	if len(got) != 1 || got[0].Addr != 1 {
		t.Fatalf("ReadPath(a) = %v", got)
	}
	if _, ok := tr.Find(2, b); !ok {
		t.Error("block on the other path vanished")
	}
}

func TestFillBucketRoundTrip(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	leaf := block.Leaf(3)
	level := o.Levels - 1
	es := []Entry{{Addr: 7, Leaf: leaf}, {Addr: 8, Leaf: leaf}}
	tr.FillBucket(level, leaf, es)
	if tr.occupied[level] != 2 {
		t.Fatalf("occupied at leaf level = %d", tr.occupied[level])
	}
	got := tr.ReadPath(leaf, nil)
	if len(got) != 2 {
		t.Fatalf("read back %d blocks", len(got))
	}
}

func TestFillBucketPanicsOnOverflow(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	es := make([]Entry, o.Z[o.Levels-1]+1)
	for i := range es {
		es[i] = Entry{Addr: block.ID(i), Leaf: 0}
	}
	tr.FillBucket(o.Levels-1, 0, es)
}

func TestFillBucketPanicsOnWrongSubtree(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	other := block.Leaf(o.LeafCount() - 1)
	tr.FillBucket(o.Levels-1, 0, []Entry{{Addr: 1, Leaf: other}})
}

func TestRemove(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	placed, _ := tr.Place(Entry{Addr: 11, Leaf: 2})
	if l, ok := tr.Remove(11, 2); !ok || l != placed {
		t.Fatalf("Remove = (%d, %v), want (%d, true)", l, ok, placed)
	}
	if _, ok := tr.Remove(11, 2); ok {
		t.Fatal("double Remove should fail")
	}
	if tr.Occupied() != 0 {
		t.Errorf("occupied %d", tr.Occupied())
	}
}

// TestPathInvariant: every block read from a path belongs on that path.
func TestPathInvariant(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	r := rng.New(5)
	leaves := o.LeafCount()
	for i := 0; i < 3000; i++ {
		tr.Place(Entry{Addr: block.ID(i), Leaf: block.Leaf(r.Uint64n(leaves))})
	}
	for probe := 0; probe < 100; probe++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		got := tr.ReadPath(leaf, nil)
		for _, e := range got {
			onPath := false
			for l := o.TopLevels; l < o.Levels; l++ {
				if SameSubtree(leaf, e.Leaf, l, o.Levels) {
					onPath = true
					break
				}
			}
			if !onPath {
				t.Fatalf("block %v (leaf %d) was on path %d but shares no bucket",
					e.Addr, e.Leaf, leaf)
			}
			// Put it back at its deepest legal spot.
			if _, ok := tr.Place(e); !ok {
				t.Fatalf("could not re-place %v", e.Addr)
			}
		}
	}
}

// TestOccupancyConservation: place/read/fill cycles conserve block count.
func TestOccupancyConservation(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	r := rng.New(8)
	leaves := o.LeafCount()
	placed := uint64(0)
	for i := 0; i < 2000; i++ {
		if _, ok := tr.Place(Entry{Addr: block.ID(i), Leaf: block.Leaf(r.Uint64n(leaves))}); ok {
			placed++
		}
	}
	if tr.Occupied() != placed {
		t.Fatalf("occupied %d != placed %d", tr.Occupied(), placed)
	}
	util := tr.Utilization()
	for l, u := range util {
		if u < 0 || u > 1 {
			t.Fatalf("level %d utilization %v out of [0,1]", l, u)
		}
	}
}

func TestUtilizationBottomHeavier(t *testing.T) {
	// With random leaves and deepest-first placement, the leaf level must
	// fill far more than the mid levels — the root cause of Fig 3's shape.
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	r := rng.New(9)
	leaves := o.LeafCount()
	target := o.Z.Slots() / 2
	for i := uint64(0); i < target; i++ {
		tr.Place(Entry{Addr: block.ID(i), Leaf: block.Leaf(r.Uint64n(leaves))})
	}
	u := tr.Utilization()
	if u[o.Levels-1] < u[o.TopLevels]*1.5 {
		t.Errorf("leaf utilization %.3f not clearly above top memory level %.3f",
			u[o.Levels-1], u[o.TopLevels])
	}
}

func TestBucketIndexProperties(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	check := func(leafSeed uint64) bool {
		leaf := block.Leaf(leafSeed % o.LeafCount())
		// Root bucket index is always 0; leaf-level index equals the leaf.
		if tr.BucketIndex(0, leaf) != 0 {
			return false
		}
		return tr.BucketIndex(o.Levels-1, leaf) == uint64(leaf)
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSameSubtreeRootAlwaysShared(t *testing.T) {
	o := tinyORAM()
	if !SameSubtree(0, block.Leaf(o.LeafCount()-1), 0, o.Levels) {
		t.Error("all leaves share the root")
	}
}

func TestMinLevelZeroStoresWholeTree(t *testing.T) {
	o := tinyORAM()
	tr := New(o, 0)
	tr.Place(Entry{Addr: 1, Leaf: 0})
	// With an empty tree, deepest-first placement lands at the leaf; force
	// root placement by filling everything below.
	if l, ok := tr.Find(1, 0); !ok || l != o.Levels-1 {
		t.Errorf("Find = %d,%v", l, ok)
	}
}
