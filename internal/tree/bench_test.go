package tree

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/posmap"
	"iroram/internal/rng"
)

// loadedTree builds the controller's initial tree for sys: every block of
// the unified space on a random leaf, loaded deepest-first, the blocks
// whose path is full left out, so buckets end full near the leaves with
// slack above.
func loadedTree(sys config.System) (*Tree, *rng.Source) {
	o := sys.ORAM
	t := New(o, o.TopLevels)
	pm := posmap.New(o, rng.New(1))
	t.Load(pm.Total(), pm.Leaf, nil)
	return t, rng.New(2)
}

// treeWalkRig loads a tree to steady state (loadedTree). Its op is one full
// path round-trip over the memory-resident levels: the occupancy-word walk
// (ReadPathEach) removes every real block on a random path, then FillBucket
// restores each bucket exactly as read, so occupancy is identical across
// ops. That isolates the record walk (whole-path occupancy loads, set-bit
// iteration, empty-bucket skips, free-mask fills) from stash and DRAM costs.
func treeWalkRig(sys config.System) func() {
	o := sys.ORAM
	minLevel := o.TopLevels
	t, r := loadedTree(sys)
	leaves := o.LeafCount()
	scratch := make([][]Entry, o.Levels)
	for l := range scratch {
		scratch[l] = make([]Entry, 0, o.Z[l])
	}
	visit := func(e Entry, l int) { scratch[l] = append(scratch[l], e) }
	return func() {
		leaf := block.Leaf(r.Uint64n(leaves))
		t.ReadPathEach(leaf, visit)
		for l := minLevel; l < o.Levels; l++ {
			t.FillBucket(l, leaf, scratch[l])
			scratch[l] = scratch[l][:0]
		}
	}
}

// BenchmarkTreeWalk runs the path round-trip on Tiny, whose whole tree fits
// in L2, and on Scaled (L=21, 84 MB of records), where each deep level of a
// random path misses the last-level cache.
func BenchmarkTreeWalk(b *testing.B) {
	for _, c := range []struct {
		name string
		sys  config.System
	}{{"Tiny", config.Tiny()}, {"Scaled", config.Scaled()}} {
		b.Run(c.name, func(b *testing.B) {
			op := treeWalkRig(c.sys)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// BenchmarkTreeLoad times the initial placement of one tree (New + Load
// of the unified space), the tree's share of building a System.
func BenchmarkTreeLoad(b *testing.B) {
	for _, c := range []struct {
		name string
		sys  config.System
	}{{"Tiny", config.Tiny()}, {"Scaled", config.Scaled()}} {
		b.Run(c.name, func(b *testing.B) {
			o := c.sys.ORAM
			pm := posmap.New(o, rng.New(1))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				New(o, o.TopLevels).Load(pm.Total(), pm.Leaf, nil)
			}
		})
	}
}

// TestTreeWalkZeroAllocs gates BenchmarkTreeWalk's op on Tiny. The walk has
// no amortized work: every op reads and refills one path in place.
func TestTreeWalkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, treeWalkRig(config.Tiny())); avg != 0 {
		t.Errorf("path round-trip allocates %.2f times per op, want 0", avg)
	}
}
