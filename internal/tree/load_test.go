package tree

import (
	"fmt"
	"math/bits"
	"slices"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/posmap"
	"iroram/internal/rng"
)

// Place inserts e at the deepest level of its leaf's path with a free slot
// and reports the level used; ok is false when every memory-resident bucket
// on the path is full. Calling it on blocks 0..n-1 in id order is the
// initial placement Load computes level by level, so it is Load's oracle.
func (t *Tree) Place(e Entry) (level int, ok bool) {
	for l := t.levels - 1; l >= t.minLevel; l-- {
		w := t.record(l, e.Leaf)
		free := ^t.rec[w] & t.lv[l].mask
		if free == 0 {
			continue
		}
		b := uint64(bits.TrailingZeros64(free))
		t.rec[w+1+b] = slotWord(e)
		t.rec[w] |= uint64(1) << b
		t.occupied[l]++
		return l, true
	}
	return 0, false
}

// placeAll is the oracle: Place on blocks 0..n-1 in id order, collecting
// the blocks that fit nowhere.
func placeAll(t *Tree, n uint64, leafOf func(block.ID) block.Leaf) []Entry {
	var spill []Entry
	for id := block.ID(0); uint64(id) < n; id++ {
		e := Entry{Addr: id, Leaf: leafOf(id)}
		if _, ok := t.Place(e); !ok {
			spill = append(spill, e)
		}
	}
	return spill
}

// loadCase is one differential configuration: a geometry, the first
// memory-resident level, and the number of blocks to load.
type loadCase struct {
	name     string
	o        config.ORAM
	minLevel int
	n        uint64
}

// loadCases covers every preset Z profile (Uniform, Alloc1–4) and ρ's
// small-tree Z=2 on Tiny, with minLevel 0 and the on-chip split, at the
// controller's load (the PosMap's unified space) and forced 10% past the
// memory levels' capacity so blocks spill.
func loadCases(sys config.System) []loadCase {
	o := sys.ORAM
	profiles := []struct {
		name string
		z    config.ZProfile
	}{
		{"Uniform", config.Uniform(o.Levels, 4)},
		{"Alloc1", config.Alloc1Profile(o.Levels, o.TopLevels)},
		{"Alloc2", config.Alloc2Profile(o.Levels, o.TopLevels)},
		{"Alloc3", config.Alloc3Profile(o.Levels, o.TopLevels)},
		{"Alloc4", config.Alloc4Profile(o.Levels, o.TopLevels)},
		{"RhoZ2", config.Uniform(o.Levels, 2)},
	}
	var cases []loadCase
	for _, p := range profiles {
		po := o
		po.Z = p.z
		for _, minLevel := range []int{0, o.TopLevels} {
			total := posmap.New(po, rng.New(1)).Total()
			full := po.Z.MemorySlots(minLevel) * 11 / 10
			for _, n := range []uint64{total, full} {
				cases = append(cases, loadCase{
					name: fmt.Sprintf("%s/min%d/n%d", p.name, minLevel, n),
					o:    po, minLevel: minLevel, n: n,
				})
			}
		}
	}
	return cases
}

// checkLoad loads one tree with Load and another with the Place oracle
// from the same leaves and requires identical records, per-level
// occupancy and spill order.
func checkLoad(t *testing.T, c loadCase, seed uint64) {
	t.Helper()
	r := rng.New(seed)
	leaves := make([]block.Leaf, c.n)
	for i := range leaves {
		leaves[i] = block.Leaf(r.Uint64n(c.o.LeafCount()))
	}
	leafOf := func(id block.ID) block.Leaf { return leaves[id] }
	got := New(c.o, c.minLevel)
	gotSpill := got.Load(c.n, leafOf, nil)
	want := New(c.o, c.minLevel)
	wantSpill := placeAll(want, c.n, leafOf)
	if !slices.Equal(gotSpill, wantSpill) {
		t.Fatalf("%s: Load spilled %d blocks, Place %d (or in another order)",
			c.name, len(gotSpill), len(wantSpill))
	}
	for l := 0; l < c.o.Levels; l++ {
		if g, w := got.OccupiedAt(l), want.OccupiedAt(l); g != w {
			t.Fatalf("%s: level %d holds %d blocks after Load, %d after Place", c.name, l, g, w)
		}
	}
	for w := range got.rec {
		if got.rec[w] != want.rec[w] {
			t.Fatalf("%s: record word %d is %#x after Load, %#x after Place",
				c.name, w, got.rec[w], want.rec[w])
		}
	}
}

// TestLoadMatchesPlace is the bulk loader's differential oracle on Tiny:
// every preset profile, both minLevel splits, the controller's load and a
// load past capacity.
func TestLoadMatchesPlace(t *testing.T) {
	sawSpill := false
	for i, c := range loadCases(config.Tiny()) {
		checkLoad(t, c, uint64(100+i))
		sawSpill = sawSpill || c.n > c.o.Z.MemorySlots(c.minLevel)
	}
	if !sawSpill {
		t.Fatal("no case forced the tree past capacity")
	}
}

// TestLoadMatchesPlaceScaled runs the oracle on the Scaled geometry (L=21,
// 84 MB of records per Uniform tree), where the leaf level alone spills
// about a quarter of the blocks, for the Uniform and IR-ORAM profiles at
// the controller's load and split.
func TestLoadMatchesPlaceScaled(t *testing.T) {
	if testing.Short() {
		t.Skip("loads two Scaled trees per profile")
	}
	o := config.Scaled().ORAM
	for i, z := range []config.ZProfile{
		config.Uniform(o.Levels, 4),
		config.IROramProfile(o.Levels, o.TopLevels),
	} {
		po := o
		po.Z = z
		checkLoad(t, loadCase{
			name: fmt.Sprintf("Scaled/%d", i),
			o:    po, minLevel: po.TopLevels,
			n: posmap.New(po, rng.New(1)).Total(),
		}, uint64(200+i))
	}
}

// TestLoadRejectsNonEmptyTree pins Load's precondition.
func TestLoadRejectsNonEmptyTree(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	tr.Place(Entry{Addr: 1, Leaf: 3})
	defer func() {
		if recover() == nil {
			t.Fatal("Load into a non-empty tree did not panic")
		}
	}()
	tr.Load(1, func(block.ID) block.Leaf { return 0 }, nil)
}

// TestEachVisitsEveryBlockOnItsPath checks the non-destructive walk after
// a load: it visits Occupied() blocks, each once, each in the bucket its
// own leaf's path crosses, and leaves the tree unchanged.
func TestEachVisitsEveryBlockOnItsPath(t *testing.T) {
	o := tinyORAM()
	tr := New(o, o.TopLevels)
	pm := posmap.New(o, rng.New(3))
	spill := tr.Load(pm.Total(), pm.Leaf, nil)
	before := slices.Clone(tr.rec)
	seen := make(map[block.ID]bool)
	tr.Each(func(e Entry, level int, bucket uint64) {
		if seen[e.Addr] {
			t.Fatalf("block %v visited twice", e.Addr)
		}
		seen[e.Addr] = true
		if e.Leaf != pm.Leaf(e.Addr) || tr.BucketIndex(level, e.Leaf) != bucket {
			t.Fatalf("block %v (leaf %d) visited in bucket %d of level %d", e.Addr, e.Leaf, bucket, level)
		}
	})
	if uint64(len(seen)) != tr.Occupied() || uint64(len(seen)+len(spill)) != pm.Total() {
		t.Fatalf("Each visited %d blocks; tree holds %d, %d spilled of %d",
			len(seen), tr.Occupied(), len(spill), pm.Total())
	}
	if !slices.Equal(before, tr.rec) {
		t.Fatal("Each modified the tree")
	}
}
