package tree

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
)

// treeWalkRig loads a Tiny tree to steady state: every data block placed
// deepest-first along a random path (the controller's initial placement),
// the blocks whose path is full falling off, so buckets end full near the
// leaves with slack above. Its op is one full path round-trip over the
// memory-resident levels: the occupancy-word walk (ReadPathEach) removes
// every real block on a random path, then FillBucket restores each bucket
// exactly as read, so occupancy is identical across ops. That isolates the
// bitmap engine (set-bit iteration, empty-bucket skips, free-mask fills)
// from stash and DRAM costs.
func treeWalkRig() func() {
	o := config.Tiny().ORAM
	minLevel := o.TopLevels
	t := New(o, minLevel)
	r := rng.New(1)
	leaves := o.LeafCount()
	for id := uint64(0); id < o.DataBlocks(); id++ {
		t.Place(Entry{Addr: block.ID(id), Leaf: block.Leaf(r.Uint64n(leaves))})
	}
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

func BenchmarkTreeWalk(b *testing.B) {
	op := treeWalkRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestTreeWalkZeroAllocs gates BenchmarkTreeWalk's op. The walk has no
// amortized work: every op reads and refills one path in place.
func TestTreeWalkZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, treeWalkRig()); avg != 0 {
		t.Errorf("path round-trip allocates %.2f times per op, want 0", avg)
	}
}
