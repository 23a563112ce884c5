package posmap

import (
	"testing"
	"testing/quick"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
)

func newTiny() *Map {
	return New(config.Tiny().ORAM, rng.New(1))
}

func TestSpaceSizing(t *testing.T) {
	m := newTiny()
	nd := m.nd
	if m.np1 != (nd+15)/16 {
		t.Errorf("Np1 = %d, want ceil(%d/16)", m.np1, nd)
	}
	if m.np2 != (m.np1+15)/16 {
		t.Errorf("Np2 = %d", m.np2)
	}
	if m.Total() != nd+m.np1+m.np2 {
		t.Error("Total mismatch")
	}
}

func TestKindRanges(t *testing.T) {
	m := newTiny()
	if m.Kind(0) != Data || m.Kind(block.ID(m.nd-1)) != Data {
		t.Error("data range misclassified")
	}
	if m.Kind(block.ID(m.nd)) != Pos1 {
		t.Error("first pos1 misclassified")
	}
	if m.Kind(block.ID(m.nd+m.np1)) != Pos2 {
		t.Error("first pos2 misclassified")
	}
	if m.Kind(block.ID(m.Total()-1)) != Pos2 {
		t.Error("last pos2 misclassified")
	}
}

func TestKindPanicsOutOfRange(t *testing.T) {
	m := newTiny()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Kind(block.ID(m.Total()))
}

func TestParentChain(t *testing.T) {
	m := newTiny()
	a := block.ID(17)
	p1, onChip := m.Parent(a)
	if onChip || m.Kind(p1) != Pos1 {
		t.Fatalf("parent of data = %v (onChip=%v)", p1, onChip)
	}
	if p1 != block.ID(m.nd+17/16) {
		t.Errorf("Pos1 parent %d misplaced", p1)
	}
	p2, onChip := m.Parent(p1)
	if onChip || m.Kind(p2) != Pos2 {
		t.Fatalf("parent of pos1 = %v (onChip=%v)", p2, onChip)
	}
	if _, onChip := m.Parent(p2); !onChip {
		t.Error("pos2 entries must live on-chip (PosMap3)")
	}
}

// TestSiblingsShareParent: blocks covered by the same PosMap1 block resolve
// to the same parent — the basis of PLB spatial locality for streaming
// workloads.
func TestSiblingsShareParent(t *testing.T) {
	m := newTiny()
	base := block.ID(32)
	p, _ := m.Parent(base)
	for i := block.ID(1); i < 16; i++ {
		q, _ := m.Parent(base + i)
		if q != p {
			t.Fatalf("block %d parent %v != %v", base+i, q, p)
		}
	}
	q, _ := m.Parent(base + 16)
	if q == p {
		t.Error("17th block should roll to the next PosMap1 block")
	}
}

func TestLeavesInRange(t *testing.T) {
	m := newTiny()
	leaves := config.Tiny().ORAM.LeafCount()
	for id := block.ID(0); id < block.ID(m.Total()); id += 97 {
		if l := m.Leaf(id); uint64(l) >= leaves {
			t.Fatalf("leaf %d out of range", l)
		}
	}
}

func TestRemapChangesAndBounds(t *testing.T) {
	m := newTiny()
	leaves := config.Tiny().ORAM.LeafCount()
	changed := 0
	for i := 0; i < 100; i++ {
		old := m.Leaf(5)
		l := m.Remap(5)
		if uint64(l) >= leaves {
			t.Fatalf("remapped leaf %d out of range", l)
		}
		if l != old {
			changed++
		}
		if m.Leaf(5) != l {
			t.Fatal("Leaf does not reflect Remap")
		}
	}
	if changed < 50 {
		t.Errorf("remap changed the leaf only %d/100 times", changed)
	}
}

func TestRemapUniform(t *testing.T) {
	m := newTiny()
	leaves := config.Tiny().ORAM.LeafCount()
	// Bin leaves into 16 groups so each bin has enough mass for a
	// meaningful uniformity check.
	const bins = 16
	counts := make([]int, bins)
	const draws = 1 << 16
	binSize := leaves / bins
	for i := 0; i < draws; i++ {
		counts[uint64(m.Remap(0))/binSize]++
	}
	want := float64(draws) / bins
	for b, c := range counts {
		if float64(c) < want*0.9 || float64(c) > want*1.1 {
			t.Errorf("bin %d drawn %d times, want about %.0f", b, c, want)
		}
	}
}

func TestUnmap(t *testing.T) {
	m := newTiny()
	m.Unmap(9)
	if m.Leaf(9).Valid() {
		t.Error("unmapped block still has a leaf")
	}
	m.Remap(9)
	if !m.Leaf(9).Valid() {
		t.Error("remap should restore a valid leaf")
	}
}

// TestSmallTag pins ρ's tree tag: a tagged entry returns its small-tree
// leaf, including leaf 0 and the largest leaf a small tree can have, and
// Unmap, Remap and an untagged entry all read as not small.
func TestSmallTag(t *testing.T) {
	m := newTiny()
	if _, ok := m.Small(3); ok {
		t.Fatal("a fresh entry reads as small-tree resident")
	}
	for _, leaf := range []block.Leaf{0, 1, 12345, 1<<30 - 1} {
		m.SetSmall(3, leaf)
		if got, ok := m.Small(3); !ok || got != leaf {
			t.Fatalf("Small after SetSmall(%d) = %d,%v", leaf, got, ok)
		}
	}
	m.Unmap(3)
	if got, ok := m.Small(3); ok || got != block.NoLeaf {
		t.Fatalf("Small after Unmap = %d,%v, want NoLeaf,false", got, ok)
	}
	if m.Leaf(3).Valid() {
		t.Fatal("Unmap left a valid main-tree leaf")
	}
	m.SetSmall(3, 7)
	l := m.Remap(3)
	if _, ok := m.Small(3); ok || m.Leaf(3) != l {
		t.Fatalf("Remap left the tag set or the leaf unrecorded: leaf %d, want %d", m.Leaf(3), l)
	}
}

func TestPos1ForMatchesParent(t *testing.T) {
	m := newTiny()
	check := func(seed uint64) bool {
		a := block.ID(seed % m.nd)
		p, onChip := m.Parent(a)
		return !onChip && m.Pos1For(a) == p
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestPos1ForPanicsOnPosBlock(t *testing.T) {
	m := newTiny()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	m.Pos1For(block.ID(m.nd))
}

func TestDeterministicAcrossConstruction(t *testing.T) {
	a := New(config.Tiny().ORAM, rng.New(7))
	b := New(config.Tiny().ORAM, rng.New(7))
	for id := block.ID(0); id < 1000; id++ {
		if a.Leaf(id) != b.Leaf(id) {
			t.Fatalf("leaf of %d differs", id)
		}
	}
}

// BenchmarkNew times building the map at Scaled: one bounded leaf draw per
// block of the unified space (4,472,830), the PosMap's share of building a
// System.
func BenchmarkNew(b *testing.B) {
	o := config.Scaled().ORAM
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		benchMap = New(o, rng.New(1))
	}
}

// benchMap keeps BenchmarkNew's result live.
var benchMap *Map
