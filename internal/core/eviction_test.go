package core

import (
	"slices"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// postWriteMainPath drains the write phase of leaf's main-tree path the
// way the fused pipeline does: a fresh run list, posted to the write
// buffer.
func postWriteMainPath(c *Controller, now uint64, leaf block.Leaf) {
	c.physBuf = c.layout.PathPhys(leaf, c.physBuf[:0])
	c.mem.PostWriteRuns(now, c.physRuns(0))
}

// TestEvictionDifferential replays every write phase of a long randomized
// workload through both eviction implementations and checks that they agree
// on the one property the experiments depend on: how MANY blocks land at
// each level of the path (both are maximal greedy deepest-first evictions,
// so per-level placement counts are uniquely determined by the stash
// contents even though block SELECTION may differ — see eviction.go).
//
// The reference runs on shadow state snapshotted just before the write
// phase: the F-Stash cloned in storage order (iteration order is part of
// both algorithms' contract) and fresh, empty tree/top structures standing
// in for the just-drained path buckets. That keeps the oracle exact for
// TopNone and the dedicated top cache; IR-Stash is excluded because its
// S-Stash refusals depend on global set occupancy that a fresh shadow
// cannot reproduce.
func TestEvictionDifferential(t *testing.T) {
	schemes := []config.Scheme{
		config.Baseline(),
		{Name: "NoTop", Top: config.TopNone},
	}
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := config.Tiny().WithScheme(sch)
			mem := dram.New(cfg.DRAM)
			c, err := NewController(cfg, mem, rng.New(11))
			if err != nil {
				t.Fatal(err)
			}
			is := NewIssuer(c, nil)
			r := rng.New(12)
			nd := cfg.ORAM.DataBlocks()

			liveCounts := make([]int, c.o.Levels)
			refCounts := make([]int, c.o.Levels)
			refused := newEpochSet(int(c.pm.Total()))
			takeBuf := make([]tree.Entry, 0, 64)
			var read []tree.Entry
			buffer := func(e tree.Entry, _ int) { read = append(read, e) }
			now := uint64(0)

			const accesses = 2500
			for i := 0; i < accesses; i++ {
				// Real demand access for churn: remaps keep the stash and
				// the per-level candidate structure non-trivial.
				now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))

				// One manual path access with the write phase run through
				// both implementations (protocol-wise a background
				// eviction: random leaf, no target).
				leaf := block.Leaf(r.Uint64n(c.o.LeafCount()))
				read = read[:0]
				c.tr.ReadPathEach(leaf, buffer)
				if c.top != nil {
					c.top.ReadPathEach(leaf, buffer)
				}
				for _, e := range read {
					c.fstash.Insert(e)
				}

				// Snapshot for the oracle, preserving storage order.
				shadow := stash.NewFStash(c.pm.Total())
				c.fstash.Each(func(e tree.Entry) { shadow.Insert(e) })
				shadowTr := tree.New(c.o, c.minLevel)
				var shadowTop stash.TopStore
				if c.top != nil {
					shadowTop = stash.NewTopCache(c.o.Levels, c.o.TopLevels, c.o.Z)
				}

				clear(liveCounts)
				clear(refCounts)
				c.evictBuf = evictOntoPath(c.fstash, c.tr, c.top, c.o.Z,
					c.minLevel, c.o.Levels, leaf, nil, c.evictList, c.evictBuf,
					func(e tree.Entry, l int, _ bool) {
						liveCounts[l]++
						if !tree.SameSubtree(leaf, e.Leaf, l, c.o.Levels) {
							t.Fatalf("access %d: illegal placement of %v (leaf %d) at level %d of path %d",
								i, e.Addr, e.Leaf, l, leaf)
						}
					}, nil)
				evictOntoPathReference(shadow, shadowTr, shadowTop, c.o.Z,
					c.minLevel, c.o.Levels, leaf, refused, takeBuf,
					func(e tree.Entry, l int, _ bool) { refCounts[l]++ })

				for l := range liveCounts {
					if liveCounts[l] != refCounts[l] {
						t.Fatalf("access %d leaf %d: placement counts diverge at level %d: single-pass %v, reference %v",
							i, leaf, l, liveCounts, refCounts)
					}
					if liveCounts[l] > c.o.Z[l] {
						t.Fatalf("access %d: %d placements at level %d exceed Z=%d",
							i, liveCounts[l], l, c.o.Z[l])
					}
				}
				if got, want := c.fstash.Len(), shadow.Len(); got != want {
					t.Fatalf("access %d: stash residue diverges: single-pass %d, reference %d", i, got, want)
				}
				postWriteMainPath(c, now, leaf)

				if i%500 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestEvictionGatherFlagDifferential exercises the fused pipeline's calling
// convention: the path's just-read blocks arrive as GatherFlag-marked
// gathered entries (never touching the stash index), while the reference
// oracle gets the same blocks pre-Inserted unflagged — the historical
// shape. Beyond the placement-count and stash-residue parity of
// TestEvictionDifferential, it pins the provenance plumbing itself: every
// placement's fetched bit must equal gathered-set membership, no entry may
// reach onPlace still flagged, and no flag may survive into the stash
// residue (a leaked bit would corrupt the next access's leaf arithmetic).
// A third run per access replays the same inputs through the counts-only
// calling convention — the demand pipeline's bulk-tally branch, which has
// no per-entry callback — and checks its per-level tallies (pre-existing
// plus fetched, and fetched) against the closure-derived ones.
func TestEvictionGatherFlagDifferential(t *testing.T) {
	schemes := []config.Scheme{
		config.Baseline(),
		{Name: "NoTop", Top: config.TopNone},
	}
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := config.Tiny().WithScheme(sch)
			mem := dram.New(cfg.DRAM)
			c, err := NewController(cfg, mem, rng.New(21))
			if err != nil {
				t.Fatal(err)
			}
			is := NewIssuer(c, nil)
			r := rng.New(22)
			nd := cfg.ORAM.DataBlocks()

			liveCounts := make([]int, c.o.Levels)
			liveFetched := make([]int, c.o.Levels)
			refCounts := make([]int, c.o.Levels)
			refused := newEpochSet(int(c.pm.Total()))
			takeBuf := make([]tree.Entry, 0, 64)
			gatheredSet := make(map[block.ID]bool)
			bulk := &migTally{fetched: make([]uint64, c.o.Levels), preexisting: make([]uint64, c.o.Levels)}
			var gathered2, bulkBuf []tree.Entry
			now := uint64(0)

			const accesses = 2000
			for i := 0; i < accesses; i++ {
				now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))

				// Gather the path the fused way: blocks staged (flagged)
				// instead of stash-inserted.
				leaf := block.Leaf(r.Uint64n(c.o.LeafCount()))
				c.gathered = c.gathered[:0]
				clear(gatheredSet)
				gather := func(e tree.Entry, _ int) {
					gatheredSet[e.Addr] = true
					e.Leaf |= tree.GatherFlag
					c.gathered = append(c.gathered, e)
				}
				c.tr.ReadPathEach(leaf, gather)
				if c.top != nil {
					c.top.ReadPathEach(leaf, gather)
				}

				// Oracle state: the resident stash in storage order, then the
				// gathered blocks appended unflagged — the pre-fused shape.
				shadow := stash.NewFStash(c.pm.Total())
				c.fstash.Each(func(e tree.Entry) { shadow.Insert(e) })
				for _, e := range c.gathered {
					e.Leaf &^= tree.GatherFlag
					shadow.Insert(e)
				}
				shadowTr := tree.New(c.o, c.minLevel)
				var shadowTop stash.TopStore
				if c.top != nil {
					shadowTop = stash.NewTopCache(c.o.Levels, c.o.TopLevels, c.o.Z)
				}

				// Replay state for the bulk-tally convention: the same inputs
				// the live call is about to consume (resident stash clone in
				// storage order, flagged gathered copy, freshly-drained path
				// buckets), snapshotted before the live call mutates them.
				shadow2 := stash.NewFStash(c.pm.Total())
				c.fstash.Each(func(e tree.Entry) { shadow2.Insert(e) })
				gathered2 = append(gathered2[:0], c.gathered...)
				shadowTr2 := tree.New(c.o, c.minLevel)
				var shadowTop2 stash.TopStore
				if c.top != nil {
					shadowTop2 = stash.NewTopCache(c.o.Levels, c.o.TopLevels, c.o.Z)
				}

				clear(liveCounts)
				clear(liveFetched)
				clear(refCounts)
				c.evictBuf = evictOntoPath(c.fstash, c.tr, c.top, c.o.Z,
					c.minLevel, c.o.Levels, leaf, c.gathered, c.evictList, c.evictBuf,
					func(e tree.Entry, l int, fetched bool) {
						liveCounts[l]++
						if fetched {
							liveFetched[l]++
						}
						if e.Leaf&tree.GatherFlag != 0 {
							t.Fatalf("access %d: entry %v reached onPlace still flagged", i, e.Addr)
						}
						if want := gatheredSet[e.Addr]; fetched != want {
							t.Fatalf("access %d: %v placed with fetched=%v, gathered set says %v",
								i, e.Addr, fetched, want)
						}
					}, nil)

				// Bulk replay: identical inputs through the counts-only branch
				// (no per-entry callback — the demand pipeline's shape). Block
				// selection is deterministic in the inputs, so the tallies must
				// equal the closure-derived ones exactly.
				clear(bulk.fetched)
				clear(bulk.preexisting)
				bulkBuf = evictOntoPath(shadow2, shadowTr2, shadowTop2, c.o.Z,
					c.minLevel, c.o.Levels, leaf, gathered2, c.evictList, bulkBuf,
					nil, bulk)
				for l := 0; l < c.o.Levels; l++ {
					placed := bulk.preexisting[l] + bulk.fetched[l]
					if placed != uint64(liveCounts[l]) || bulk.fetched[l] != uint64(liveFetched[l]) {
						t.Fatalf("access %d level %d: bulk tally (placed %d, fetched %d), closure (placed %d, fetched %d)",
							i, l, placed, bulk.fetched[l], liveCounts[l], liveFetched[l])
					}
				}
				if got, want := shadow2.Len(), c.fstash.Len(); got != want {
					t.Fatalf("access %d: bulk-replay stash residue %d, live %d", i, got, want)
				}
				evictOntoPathReference(shadow, shadowTr, shadowTop, c.o.Z,
					c.minLevel, c.o.Levels, leaf, refused, takeBuf,
					func(e tree.Entry, l int, _ bool) { refCounts[l]++ })

				for l := range liveCounts {
					if liveCounts[l] != refCounts[l] {
						t.Fatalf("access %d leaf %d: placement counts diverge at level %d: fused %v, reference %v",
							i, leaf, l, liveCounts, refCounts)
					}
				}
				if got, want := c.fstash.Len(), shadow.Len(); got != want {
					t.Fatalf("access %d: stash residue diverges: fused %d, reference %d", i, got, want)
				}
				c.fstash.Each(func(e tree.Entry) {
					if e.Leaf&tree.GatherFlag != 0 {
						t.Fatalf("access %d: flag leaked into stash residue on %v", i, e.Addr)
					}
				})
				postWriteMainPath(c, now, leaf)

				if i%500 == 0 {
					if err := c.CheckInvariants(); err != nil {
						t.Fatalf("access %d: %v", i, err)
					}
				}
			}
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// refusalAudit is an IR-Stash that fails the test on a Fill refused by a
// full bucket. IRStash.Fill checks the block's set first and counts every
// set-full refusal in Conflicts, so a refusal that leaves Conflicts unchanged
// found its bucket full. A set-full refusal holds for the rest of a write
// phase; a bucket-full one would not, and skipping the block afterwards
// would then be wrong.
type refusalAudit struct {
	*stash.IRStash
	t *testing.T
}

func (a refusalAudit) Fill(level int, leaf block.Leaf, e tree.Entry) bool {
	before := a.Conflicts
	if a.IRStash.Fill(level, leaf, e) {
		return true
	}
	if a.Conflicts == before {
		a.t.Fatalf("Fill of %v at level %d of path %d refused by a full bucket", e.Addr, level, leaf)
	}
	return false
}

// TestEvictionRefusalDifferential pins the on-chip write loop, which offers
// each block until its first S-Stash refusal, against the loop that offered
// the whole pool again at every level (evictOntoPathReoffer). Two sides
// built the same way (F-Stash, tree, IR-Stash) hold the same blocks and run
// the same randomized paths: each path is read into flagged gathered
// entries, one block is remapped as a demand access would, and the write
// phase runs through the new loop on one side and the reference on the
// other. Both must place the same blocks at the same levels in the same
// order and leave the same F-Stash order; every few hundred paths the
// S-Stash contents are compared block by block. The reference re-offers
// must have been refused many times over for the test to mean anything.
func TestEvictionRefusalDifferential(t *testing.T) {
	o := config.Tiny().WithScheme(config.IROramScheme()).ORAM
	type placement struct {
		addr    block.ID
		level   int
		fetched bool
	}
	type side struct {
		fs       *stash.FStash
		tr       *tree.Tree
		irs      *stash.IRStash
		top      refusalAudit
		lists    [][]tree.Entry
		gathered []tree.Entry
		buf      []tree.Entry
		placed   []placement
		residue  []tree.Entry
	}
	// At 90% of the slots, the first paths drain a stash of thousands of
	// blocks through a full S-Stash, so most on-chip offers are refused.
	blocks := o.Z.Slots() * 9 / 10
	leafOf := make([]block.Leaf, blocks)
	r := rng.New(41)
	for i := range leafOf {
		leafOf[i] = block.Leaf(r.Uint64n(o.LeafCount()))
	}
	newSide := func() *side {
		s := &side{
			fs:    stash.NewFStash(blocks),
			tr:    tree.New(o, o.TopLevels),
			irs:   stash.NewIRStash(o.Levels, o.TopLevels, o.Z, o.SStashWays),
			lists: make([][]tree.Entry, o.Levels),
		}
		s.top = refusalAudit{s.irs, t}
		spill := s.tr.Load(blocks, func(id block.ID) block.Leaf { return leafOf[id] }, nil)
		for _, e := range spill {
			placed := false
			for l := o.TopLevels - 1; l >= 0 && !placed; l-- {
				placed = s.irs.Fill(l, e.Leaf, e)
			}
			if !placed {
				s.fs.Insert(e)
			}
		}
		return s
	}
	live, ref := newSide(), newSide()
	for _, s := range []*side{live, ref} {
		s.irs.Conflicts = 0
	}

	const paths = 4000
	for i := 0; i < paths; i++ {
		leaf := block.Leaf(r.Uint64n(o.LeafCount()))
		for _, s := range []*side{live, ref} {
			s.gathered = s.gathered[:0]
			s.placed = s.placed[:0]
			gather := func(e tree.Entry, _ int) {
				e.Leaf |= tree.GatherFlag
				s.gathered = append(s.gathered, e)
			}
			s.tr.ReadPathEach(leaf, gather)
			s.irs.ReadPathEach(leaf, gather)
		}
		// A demand access takes one path block out and re-stashes it under
		// a fresh leaf after the write phase.
		var target tree.Entry
		hasTarget := len(live.gathered) > 0
		if hasTarget {
			k := int(r.Uint64n(uint64(len(live.gathered))))
			target = live.gathered[k]
			target.Leaf = block.Leaf(r.Uint64n(o.LeafCount()))
			for _, s := range []*side{live, ref} {
				s.gathered = append(s.gathered[:k], s.gathered[k+1:]...)
			}
		}

		record := func(s *side) func(tree.Entry, int, bool) {
			return func(e tree.Entry, l int, fetched bool) {
				s.placed = append(s.placed, placement{e.Addr, l, fetched})
			}
		}
		live.buf = evictOntoPath(live.fs, live.tr, live.top, o.Z, o.TopLevels, o.Levels, leaf,
			live.gathered, live.lists, live.buf, record(live), nil)
		ref.buf = evictOntoPathReoffer(ref.fs, ref.tr, ref.top, o.Z, o.TopLevels, o.Levels, leaf,
			ref.gathered, ref.lists, ref.buf, record(ref))

		if !slices.Equal(live.placed, ref.placed) {
			t.Fatalf("path %d (leaf %d): placements diverge:\nlive %v\nref  %v", i, leaf, live.placed, ref.placed)
		}
		for _, s := range []*side{live, ref} {
			if hasTarget {
				s.fs.Insert(target)
			}
			s.residue = s.residue[:0]
			s.fs.Each(func(e tree.Entry) { s.residue = append(s.residue, e) })
		}
		if !slices.Equal(live.residue, ref.residue) {
			t.Fatalf("path %d: F-Stash order diverges:\nlive %v\nref  %v", i, live.residue, ref.residue)
		}
		if i%500 == 499 {
			for id := block.ID(0); id < block.ID(blocks); id++ {
				l1, ok1 := live.irs.LookupByAddr(id)
				l2, ok2 := ref.irs.LookupByAddr(id)
				if ok1 != ok2 || l1 != l2 {
					t.Fatalf("path %d: S-Stash holds %v as (%d,%v) live, (%d,%v) ref", i, id, l1, ok1, l2, ok2)
				}
			}
			for l := 0; l < o.TopLevels; l++ {
				if a, b := live.irs.OccupiedAt(l), ref.irs.OccupiedAt(l); a != b {
					t.Fatalf("path %d: S-Stash level %d holds %d live, %d ref", i, l, a, b)
				}
			}
		}
	}
	if skipped := ref.irs.Conflicts - live.irs.Conflicts; live.irs.Conflicts < 1000 || skipped < 1000 {
		t.Errorf("refusals: %d live, %d with re-offers; want at least 1000 of each kind",
			live.irs.Conflicts, skipped)
	}
	t.Logf("refusals over %d paths: %d live, %d with re-offers", paths, live.irs.Conflicts, ref.irs.Conflicts)
}
