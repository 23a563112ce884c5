package tree

import (
	"fmt"
	"math/bits"
	"runtime"
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

// loadCases covers every preset Z profile (Uniform, Alloc1–4, IR-ORAM) and
// ρ's small-tree Z=2 on geometry o, at each of minLevels, at the
// controller's load (the PosMap's unified space) and forced 10% past the
// memory levels' capacity so blocks spill.
func loadCases(o config.ORAM, minLevels ...int) []loadCase {
	profiles := []struct {
		name string
		z    config.ZProfile
	}{
		{"Uniform", config.Uniform(o.Levels, 4)},
		{"Alloc1", config.Alloc1Profile(o.Levels, o.TopLevels)},
		{"Alloc2", config.Alloc2Profile(o.Levels, o.TopLevels)},
		{"Alloc3", config.Alloc3Profile(o.Levels, o.TopLevels)},
		{"Alloc4", config.Alloc4Profile(o.Levels, o.TopLevels)},
		{"IR-ORAM", config.IROramProfile(o.Levels, o.TopLevels)},
		{"RhoZ2", config.Uniform(o.Levels, 2)},
	}
	var cases []loadCase
	for _, p := range profiles {
		po := o
		po.Z = p.z
		for _, minLevel := range minLevels {
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

// checkLoad loads one tree with the Place oracle and, from the same leaves,
// one tree per worker count with load, and requires identical records,
// per-level occupancy and spill order. It reports whether the case spilled
// blocks from more than one partition, so the id-order merge ran.
func checkLoad(t *testing.T, c loadCase, seed uint64, workers ...int) (merged bool) {
	t.Helper()
	r := rng.New(seed)
	leaves := make([]block.Leaf, c.n)
	for i := range leaves {
		leaves[i] = block.Leaf(r.Uint64n(c.o.LeafCount()))
	}
	leafOf := func(id block.ID) block.Leaf { return leaves[id] }
	want := New(c.o, c.minLevel)
	wantSpill := placeAll(want, c.n, leafOf)
	for _, k := range workers {
		got := New(c.o, c.minLevel)
		gotSpill := got.load(c.n, leafOf, nil, k)
		if !slices.Equal(gotSpill, wantSpill) {
			t.Fatalf("%s, %d workers: load spilled %d blocks, Place %d (or in another order)",
				c.name, k, len(gotSpill), len(wantSpill))
		}
		for l := 0; l < c.o.Levels; l++ {
			if g, w := got.occupied[l], want.occupied[l]; g != w {
				t.Fatalf("%s, %d workers: level %d holds %d blocks after load, %d after Place",
					c.name, k, l, g, w)
			}
		}
		for w := range got.rec {
			if got.rec[w] != want.rec[w] {
				t.Fatalf("%s, %d workers: record word %d is %#x after load, %#x after Place",
					c.name, k, w, got.rec[w], want.rec[w])
			}
		}
	}
	p := want.partitionBits()
	parts := make(map[uint64]bool)
	for _, e := range wantSpill {
		parts[uint64(e.Leaf)>>(uint(c.o.Levels-1)-p)] = true
	}
	return len(parts) > 1
}

// TestLoadMatchesPlace is the bulk loader's differential oracle on Tiny,
// which Load fills in one pass: every preset profile, both minLevel splits,
// the controller's load and a load past capacity.
func TestLoadMatchesPlace(t *testing.T) {
	o := config.Tiny().ORAM
	if p := New(o, o.TopLevels).partitionBits(); p != 0 {
		t.Fatalf("Tiny tree loads in %d partitions, want one pass", 1<<p)
	}
	sawSpill := false
	for i, c := range loadCases(o, 0, o.TopLevels) {
		checkLoad(t, c, uint64(100+i), runtime.GOMAXPROCS(0))
		sawSpill = sawSpill || c.n > c.o.Z.MemorySlots(c.minLevel)
	}
	if !sawSpill {
		t.Fatal("no case forced the tree past capacity")
	}
}

// TestLoadPartitionsMatchPlace runs the oracle where Load partitions: on a
// mid-size geometry (L=17, whose leaf level Load cuts into 8 partitions),
// every preset profile, at 1, 2, 3 and 7 workers. minLevel is the on-chip
// split, 2 (below the 3 partition bits Load would take, so it takes 2) and 0
// (one pass). The cases 10% past capacity spill from several partitions, so
// the leftovers' merge back into id order runs.
func TestLoadPartitionsMatchPlace(t *testing.T) {
	o := config.Tiny().ORAM
	o.Levels, o.TopLevels, o.Z = 17, 5, config.Uniform(17, 4)
	if p := New(o, o.TopLevels).partitionBits(); p != 3 {
		t.Fatalf("L=17 tree loads in %d partitions, want 8", 1<<p)
	}
	cases := loadCases(o, o.TopLevels, 2, 0)
	if raceEnabled {
		cases = cases[:6] // Uniform at each split: the race detector's share
	}
	sawMerge := false
	for i, c := range cases {
		if checkLoad(t, c, uint64(300+i), 1, 2, 3, 7) && c.minLevel > 0 {
			sawMerge = true
		}
	}
	if !sawMerge {
		t.Fatal("no partitioned case spilled from more than one partition")
	}
}

// TestLoadMatchesPlaceScaled runs the oracle on the Scaled geometry (L=21,
// 84 MB of records per Uniform tree, 128 partitions), where the leaf level
// alone spills about a quarter of the blocks, for the Uniform and IR-ORAM
// profiles at the controller's load and split.
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
		}, uint64(200+i), runtime.GOMAXPROCS(0))
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
