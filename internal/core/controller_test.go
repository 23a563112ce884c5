package core

import (
	"runtime"
	"strings"
	"testing"

	"iroram/internal/block"
	"iroram/internal/cache"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/metrics"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

func newSystem(t *testing.T, sch config.Scheme) (*Issuer, *Controller) {
	t.Helper()
	cfg := config.Tiny().WithScheme(sch)
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewIssuer(c, nil), c
}

func TestConstructionAllSchemes(t *testing.T) {
	for _, sch := range config.AllSchemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			_, c := newSystem(t, sch)
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			if c.tr.Occupied() == 0 {
				t.Fatal("initial placement left the tree empty")
			}
		})
	}
}

func TestInitialPlacementCoversSpace(t *testing.T) {
	_, c := newSystem(t, config.Baseline())
	total := c.tr.Occupied() + uint64(c.top.Len()) + uint64(c.fstash.Len())
	if total != c.pm.Total() {
		t.Fatalf("placed %d of %d blocks", total, c.pm.Total())
	}
	// Initial stash spill must be tiny at 50% load.
	if c.fstash.Len() > c.o.StashCapacity {
		t.Errorf("init spilled %d blocks to the stash", c.fstash.Len())
	}
}

// TestCheckInvariantsAllocationBounded bounds the heap one CheckInvariants
// call allocates on a warmed Tiny IR-ORAM controller: its residency bitset
// over the 34,942 blocks of the unified space is 4.4 KB.
func TestCheckInvariantsAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race instrumentation")
	}
	is, c := newSystem(t, config.IROramScheme())
	r := rng.New(5)
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	const bound = 16 << 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := c.CheckInvariants()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bound {
		t.Errorf("CheckInvariants allocated %d bytes with %d blocks in the F-Stash, want at most %d",
			got, c.fstash.Len(), bound)
	}
}

// warmBaseline returns a Tiny Baseline controller after 2000 demand reads.
func warmBaseline(t *testing.T) *Controller {
	t.Helper()
	is, c := newSystem(t, config.Baseline())
	r := rng.New(5)
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	return c
}

// editBucket finds a bucket of level holding at least two blocks, drains
// its path and refills every bucket as read, except that edit rewrites the
// entries of that bucket first. FillBucket keeps the edit on the bucket's
// subtree.
func editBucket(t *testing.T, c *Controller, level int, edit func([]tree.Entry) []tree.Entry) {
	t.Helper()
	fill := make([]int, 1<<uint(level))
	c.tr.Each(func(_ tree.Entry, l int, bucket uint64) {
		if l == level {
			fill[bucket]++
		}
	})
	for bucket, n := range fill {
		if n < 2 {
			continue
		}
		leaf := block.Leaf(uint64(bucket) << uint(c.o.Levels-1-level))
		byLevel := make([][]tree.Entry, c.o.Levels)
		c.tr.ReadPathEach(leaf, func(e tree.Entry, l int) { byLevel[l] = append(byLevel[l], e) })
		byLevel[level] = edit(byLevel[level])
		for l, es := range byLevel {
			c.tr.FillBucket(l, leaf, es)
		}
		return
	}
	t.Fatalf("no level-%d bucket holds two blocks", level)
}

// TestCheckInvariantsCatchesDuplicateWithLoss stores one block of a level-5
// bucket twice and loses another from the same bucket, on a warmed Tiny
// Baseline controller, leaving every count intact. A check that marked
// residency only inside the F-Stash and compared totals passed this state.
func TestCheckInvariantsCatchesDuplicateWithLoss(t *testing.T) {
	c := warmBaseline(t)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("before the edit: %v", err)
	}
	editBucket(t, c, 5, func(es []tree.Entry) []tree.Entry {
		es[len(es)-1] = es[0]
		return es
	})
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "held twice") {
		t.Fatalf("CheckInvariants = %v, want a block held twice", err)
	}
}

// TestCheckInvariantsCatchesOnChipFaults covers the structures outside the
// tree: a block dropped from the F-Stash is held nowhere, a stashed block
// under a stale leaf is lost to its path, and a copy of a PLB-resident
// PosMap block in the F-Stash is held twice.
func TestCheckInvariantsCatchesOnChipFaults(t *testing.T) {
	c := warmBaseline(t)
	var stashed tree.Entry
	c.fstash.Each(func(e tree.Entry) { stashed = e })
	if c.fstash.Len() == 0 || !c.fstash.Remove(stashed.Addr) {
		t.Fatal("warmed controller has an empty F-Stash")
	}
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "held nowhere") {
		t.Fatalf("after dropping %v: CheckInvariants = %v", stashed.Addr, err)
	}
	c.fstash.Insert(tree.Entry{Addr: stashed.Addr, Leaf: stashed.Leaf ^ 1})
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "its leaf is") {
		t.Fatalf("with %v stashed under a stale leaf: CheckInvariants = %v", stashed.Addr, err)
	}
	c.fstash.Insert(stashed)
	if err := c.CheckInvariants(); err != nil {
		t.Fatalf("after restoring %v: %v", stashed.Addr, err)
	}

	var resident uint64
	c.plb.EachValid(func(l cache.Line) { resident = l.Addr })
	id := block.ID(resident)
	c.fstash.Insert(tree.Entry{Addr: id, Leaf: c.pm.Leaf(id)})
	if err := c.CheckInvariants(); err == nil || !strings.Contains(err.Error(), "held twice") {
		t.Fatalf("with PLB block %v also stashed: CheckInvariants = %v", id, err)
	}
}

func TestReadBlockCompletes(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	done := is.ReadBlock(0, 123)
	if done == 0 {
		t.Fatal("zero completion time")
	}
	if c.st.ServedRequests != 1 {
		t.Fatalf("served %d requests", c.st.ServedRequests)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRereadHitsStash(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	done := is.ReadBlock(0, 123)
	is.ReadBlock(done+10, 123)
	if c.st.StashHits == 0 {
		t.Error("immediate re-read should hit the stash")
	}
}

func TestColdReadNeedsPosMapPaths(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	// A cold PLB: the first read needs PTp(Pos2) then PTp(Pos1) then PTd.
	is.ReadBlock(0, 77)
	if c.st.PosMapPaths != 2 {
		t.Errorf("PosMapPaths = %d, want 2 on a cold PLB", c.st.PosMapPaths)
	}
	if c.st.Paths.Paths[block.PathPos1] != 1 || c.st.Paths.Paths[block.PathPos2] != 1 {
		t.Errorf("path counts %v", c.st.Paths.Paths)
	}
}

func TestPosMapLocalitySavesPaths(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	// 16 consecutive blocks share one PosMap1 block: after the first, the
	// PLB must serve the rest.
	now := uint64(0)
	for a := block.ID(1600); a < 1616; a++ {
		now = is.ReadBlock(now+1, a)
	}
	if c.st.PosMapPaths > 2 {
		t.Errorf("PosMapPaths = %d for a 16-block PosMap-local run, want <= 2", c.st.PosMapPaths)
	}
}

func TestDummiesFillIdleGaps(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	done := is.ReadBlock(0, 5)
	// 50 slots of idleness must become 50 dummies.
	is.AdvanceTo(done + 50*c.o.IntervalT)
	if c.st.DummyPaths < 40 {
		t.Errorf("only %d dummy paths during a long idle gap", c.st.DummyPaths)
	}
}

func TestIssueUniformity(t *testing.T) {
	// The obliviousness regression test: every issue exactly T apart.
	for _, sch := range []config.Scheme{config.Baseline(), config.IRAllocScheme(),
		config.IRStashScheme(), config.IROramScheme(), config.LLCDScheme()} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			is, c := newSystem(t, sch)
			r := rng.New(99)
			now := uint64(0)
			// Under LLC-D a block fetched by a read lives only in the LLC
			// until evicted, so reads must not repeat a held-out address
			// (the real LLC would have hit); writes evict held-out blocks.
			heldOut := map[block.ID]bool{}
			var heldList []block.ID
			for i := 0; i < 300; i++ {
				a := block.ID(r.Uint64n(c.o.DataBlocks()))
				if sch.DelayedRemap && r.Float64() < 0.3 && len(heldList) > 0 {
					v := heldList[r.Intn(len(heldList))]
					if heldOut[v] {
						delete(heldOut, v)
						now = is.PostWrite(now+uint64(r.Intn(3000)), v)
						continue
					}
				}
				if r.Float64() < 0.3 && !sch.DelayedRemap {
					now = is.PostWrite(now+uint64(r.Intn(3000)), a)
					continue
				}
				if sch.DelayedRemap {
					if heldOut[a] {
						continue // LLC hit in the real system
					}
					heldOut[a] = true
					heldList = append(heldList, a)
				}
				now = is.ReadBlock(now+uint64(r.Intn(3000)), a)
			}
			if c.st.NonUniformIssues != 0 {
				t.Errorf("%d of %d issues broke the T-cycle cadence",
					c.st.NonUniformIssues, c.st.PathsIssued)
			}
		})
	}
}

func TestNoTimingProtectionNoDummies(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	cfg.ORAM.IntervalT = 0
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	now := uint64(0)
	for i := 0; i < 100; i++ {
		now = is.ReadBlock(now+5000, block.ID(i*31))
	}
	if c.st.DummyPaths != 0 {
		t.Errorf("%d dummies without timing protection", c.st.DummyPaths)
	}
}

func TestWriteBackFullAccess(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	end := is.PostWrite(0, 42)
	// Drain the queue by advancing time.
	is.AdvanceTo(end + 100*c.o.IntervalT)
	if len(is.writeQ) != 0 {
		t.Fatalf("write queue still has %d entries", len(is.writeQ))
	}
	if c.st.ServedRequests != 1 {
		t.Errorf("served %d", c.st.ServedRequests)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteQueueStalls(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	// Posting far more writes than the queue depth at the same instant
	// must stall (returned time advances past the post time).
	now := uint64(0)
	var stalled bool
	for i := 0; i < 3*c.cfg.CPU.WriteQueueDepth; i++ {
		done := is.PostWrite(now, block.ID(i*97))
		if done > now {
			stalled = true
			now = done
		}
	}
	if !stalled {
		t.Error("write queue never stalled the core")
	}
}

func TestBackgroundEvictionTriggers(t *testing.T) {
	is, c := newSystem(t, config.IRAllocScheme())
	r := rng.New(3)
	now := uint64(0)
	for i := 0; i < 600; i++ {
		a := block.ID(r.Uint64n(c.o.DataBlocks()))
		now = is.ReadBlock(now+1, a)
	}
	if c.fstash.Len() > c.o.StashCapacity {
		t.Errorf("stash at %d blocks, capacity %d: background eviction failing",
			c.fstash.Len(), c.o.StashCapacity)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIRStashServesByAddress(t *testing.T) {
	is, c := newSystem(t, config.IRStashScheme())
	r := rng.New(7)
	now := uint64(0)
	// Work a small hot set so blocks land in the tree top, then re-read.
	for i := 0; i < 400; i++ {
		a := block.ID(r.Uint64n(256))
		now = is.ReadBlock(now+500, a)
	}
	if c.st.SStashHits == 0 {
		t.Error("IR-Stash address index never hit")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestIRStashReducesPosMapPaths(t *testing.T) {
	// The paper's scenario: a hot set that lives in the tree top plus cold
	// scans that thrash the PLB. The baseline pays PTp paths to discover
	// its tree-top hits; IR-Stash serves them by address first (Fig 14).
	run := func(sch config.Scheme) uint64 {
		is, c := newSystem(t, sch)
		r := rng.New(11)
		now := uint64(0)
		for i := 0; i < 600; i++ {
			var a block.ID
			if i%2 == 0 {
				// Hot set spread so each block has its own PosMap1 block
				// (the tree-top-resident, PLB-missing case IR-Stash wins).
				a = block.ID(r.Uint64n(96) * 256)
			} else {
				a = block.ID(r.Uint64n(24576)) // cold: thrashes the PLB
			}
			// Leave idle time so dummies flush the stash into the tree top
			// between requests.
			now = is.ReadBlock(now+3000, a)
		}
		return c.st.PosMapPaths
	}
	base := run(config.Baseline())
	irs := run(config.IRStashScheme())
	if irs >= base {
		t.Errorf("IR-Stash PosMap paths %d >= baseline %d (Fig 14 shape violated)", irs, base)
	}
}

func TestTopHitsHappenInBaseline(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	r := rng.New(13)
	now := uint64(0)
	for i := 0; i < 500; i++ {
		a := block.ID(r.Uint64n(512))
		now = is.ReadBlock(now+700, a)
	}
	if c.st.TopHits == 0 {
		t.Error("hot working set never hit the dedicated tree-top cache")
	}
	if c.st.HitLevels.Total() == 0 {
		t.Error("hit-level histogram empty")
	}
}

func TestLLCDHoldsBlocksOut(t *testing.T) {
	is, c := newSystem(t, config.LLCDScheme())
	done := is.ReadBlock(0, 55)
	if c.pm.Leaf(55).Valid() {
		t.Fatal("LLC-D should unmap the fetched block")
	}
	// Eviction reinserts it.
	end := is.PostWrite(done+10, 55)
	is.AdvanceTo(end + 50*c.o.IntervalT)
	if len(is.writeQ) != 0 {
		t.Fatal("reinsert never drained")
	}
	if !c.pm.Leaf(55).Valid() {
		t.Fatal("reinsert did not remap the block")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLLCDReadWhileQueuedForwards(t *testing.T) {
	is, c := newSystem(t, config.LLCDScheme())
	done := is.ReadBlock(0, 60)
	is.PostWrite(done+1, 60)
	// Immediately reading it back (LLC miss after eviction) must forward
	// from the queue rather than panic on the unmapped block.
	if got := is.ReadBlock(done+2, 60); got == 0 {
		t.Fatal("forwarded read returned zero time")
	}
	_ = c
}

func TestUtilizationBounds(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	r := rng.New(5)
	now := uint64(0)
	for i := 0; i < 300; i++ {
		now = is.ReadBlock(now+300, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	u := c.Utilization()
	if len(u) != c.o.Levels {
		t.Fatalf("utilization has %d levels", len(u))
	}
	for l, v := range u {
		if v < 0 || v > 1 {
			t.Errorf("level %d utilization %v", l, v)
		}
	}
	// The leaf level must be far better utilized than the middle (Fig 3).
	if u[c.o.Levels-1] < u[c.o.TopLevels+1] {
		t.Errorf("leaf utilization %.3f below middle %.3f", u[c.o.Levels-1], u[c.o.TopLevels+1])
	}
}

func TestMigrationStatsPopulated(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	r := rng.New(17)
	now := uint64(0)
	for i := 0; i < 300; i++ {
		now = is.ReadBlock(now+300, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	if c.st.MigrationFetched.Total() == 0 || c.st.MigrationPreexisting.Total() == 0 {
		t.Error("migration histograms not populated")
	}
	// Fig 5: pre-existing stash blocks land nearer the root than fetched
	// blocks on average.
	avg := func(h *metrics.LinearHist) float64 {
		// fraction of placements in the top half of the tree
		var top uint64
		for _, n := range h.Counts[:c.o.Levels/2+1] {
			top += n
		}
		return float64(top) / float64(h.Total())
	}
	if avg(c.st.MigrationPreexisting) <= avg(c.st.MigrationFetched) {
		t.Logf("pre-existing top-half share %.3f vs fetched %.3f (informational)",
			avg(c.st.MigrationPreexisting), avg(c.st.MigrationFetched))
	}
}

func TestDeterministicExecution(t *testing.T) {
	run := func() (uint64, uint64) {
		is, c := newSystem(t, config.IROramScheme())
		r := rng.New(23)
		now := uint64(0)
		for i := 0; i < 200; i++ {
			now = is.ReadBlock(now+137, block.ID(r.Uint64n(c.o.DataBlocks())))
		}
		return now, c.st.Paths.Total()
	}
	a1, b1 := run()
	a2, b2 := run()
	if a1 != a2 || b1 != b2 {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", a1, b1, a2, b2)
	}
}

func TestIRAllocFewerBlocksPerPath(t *testing.T) {
	_, base := newSystem(t, config.Baseline())
	_, alloc := newSystem(t, config.IRAllocScheme())
	if alloc.nPathBlocks >= base.nPathBlocks {
		t.Errorf("IR-Alloc path %d blocks, baseline %d", alloc.nPathBlocks, base.nPathBlocks)
	}
}

func TestContextSwitchFlushesStash(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	r := rng.New(31)
	now := uint64(0)
	for i := 0; i < 120; i++ {
		now = is.ReadBlock(now+400, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	if c.StashLen() == 0 {
		t.Skip("stash happened to be empty before the switch")
	}
	done := c.ContextSwitch(now)
	if done <= now {
		t.Fatal("context switch took no time")
	}
	if c.StashLen() != 0 {
		t.Errorf("stash still holds %d blocks after the flush", c.StashLen())
	}
	if c.st.ContextSwitches != 1 {
		t.Errorf("ContextSwitches = %d", c.st.ContextSwitches)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The system must keep working after resume.
	is.ReadBlock(done+10, 42)
}

func TestContextSwitchIRStash(t *testing.T) {
	is, c := newSystem(t, config.IRStashScheme())
	r := rng.New(33)
	now := uint64(0)
	for i := 0; i < 120; i++ {
		now = is.ReadBlock(now+400, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	done := c.ContextSwitch(now)
	if c.StashLen() != 0 {
		t.Errorf("stash still holds %d blocks", c.StashLen())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	is.ReadBlock(done+10, 77)
}

// TestContextSwitchSpillClearsTrees checks that the tree-top spill of a
// context switch lands past every tree's DRAM region [physOff, physEnd):
// under ρ the small tree is laid out right after the main tree, so a spill
// based on the main tree's end alone overwrites it.
func TestContextSwitchSpillClearsTrees(t *testing.T) {
	for _, sch := range config.AllSchemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			_, c := newSystem(t, sch)
			if c.top == nil {
				t.Skip("no tree top to spill")
			}
			trees := []*pathTree{&c.pathTree}
			if c.rho != nil {
				trees = append(trees, &c.rho.pathTree)
			}
			c.ContextSwitch(0)
			// The spill is the last address list ContextSwitch services.
			spill := c.physBuf
			if len(spill) == 0 {
				t.Fatal("context switch spilled nothing")
			}
			for _, tr := range trees {
				for _, a := range spill {
					if a >= tr.physOff && a < tr.physEnd() {
						t.Fatalf("spill slot %d inside tree region [%d, %d)", a, tr.physOff, tr.physEnd())
					}
				}
			}
		})
	}
}
