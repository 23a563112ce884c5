package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// fakeDWB is a scripted DWBSource: a fixed candidate list, always still
// valid unless aborted.
type fakeDWB struct {
	cands   []uint64
	next    int
	valid   map[uint64]bool
	cleaned []uint64
}

func newFakeDWB(cands ...uint64) *fakeDWB {
	f := &fakeDWB{cands: cands, valid: map[uint64]bool{}}
	for _, c := range cands {
		f.valid[c] = true
	}
	return f
}

func (f *fakeDWB) FindCandidate(uint64) (uint64, bool) {
	for f.next < len(f.cands) {
		c := f.cands[f.next]
		f.next++
		if f.valid[c] {
			return c, true
		}
	}
	return 0, false
}

func (f *fakeDWB) StillCandidate(addr uint64) bool { return f.valid[addr] }

func (f *fakeDWB) MarkClean(addr uint64) bool {
	f.cleaned = append(f.cleaned, addr)
	delete(f.valid, addr)
	return true
}

func newDWBSystem(t *testing.T, src DWBSource) (*Issuer, *Controller) {
	t.Helper()
	cfg := config.Tiny().WithScheme(config.IRDWBScheme())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewIssuer(c, src), c
}

func TestDWBConvertsDummySlots(t *testing.T) {
	src := newFakeDWB(100, 200, 300)
	is, c := newDWBSystem(t, src)
	// Long idle stretch: slots would all be dummies; IR-DWB must convert
	// up to 3 per candidate (Pos2, Pos1, data write).
	is.AdvanceTo(60 * c.o.IntervalT)
	if c.st.Paths.Paths[block.PathDWB] == 0 {
		t.Fatal("no dummy slots converted")
	}
	if c.st.DWBCompleted != 3 {
		t.Fatalf("completed %d early write-backs, want 3", c.st.DWBCompleted)
	}
	if len(src.cleaned) != 3 {
		t.Fatalf("MarkClean called for %d lines", len(src.cleaned))
	}
	// With a cold PLB each write-back needs up to 3 paths.
	if c.st.Paths.Paths[block.PathDWB] > 9 {
		t.Errorf("converted %d slots for 3 write-backs", c.st.Paths.Paths[block.PathDWB])
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDWBStageSkipsResidentPosMaps(t *testing.T) {
	src := newFakeDWB(64, 65) // same PosMap1 block (64/16 == 65/16... adjacent)
	is, c := newDWBSystem(t, src)
	is.AdvanceTo(60 * c.o.IntervalT)
	if c.st.DWBCompleted != 2 {
		t.Fatalf("completed %d, want 2", c.st.DWBCompleted)
	}
	// The second candidate shares the first's PosMap1 block, so its chain
	// must be shorter: strictly fewer than 6 conversions total.
	if c.st.Paths.Paths[block.PathDWB] >= 6 {
		t.Errorf("no PLB reuse across DWB candidates: %d conversions", c.st.Paths.Paths[block.PathDWB])
	}
}

func TestDWBAbortsStaleCandidates(t *testing.T) {
	src := newFakeDWB(500)
	is, c := newDWBSystem(t, src)
	// Let it pick the candidate and do the first step, then invalidate.
	is.AdvanceTo(2 * c.o.IntervalT)
	if is.dwbStage == 0 {
		t.Skip("candidate already completed in the window")
	}
	src.valid[500] = false
	is.AdvanceTo(10 * c.o.IntervalT)
	if c.st.DWBAborted == 0 {
		t.Error("stale candidate not aborted")
	}
	if c.st.DWBCompleted != 0 {
		t.Error("aborted candidate reported complete")
	}
}

func TestDWBDistributionShiftsFromDummy(t *testing.T) {
	// Fig 15 shape: with IR-DWB, the dummy share drops and converted
	// slots appear in its place.
	run := func(src DWBSource) (dummy, converted uint64) {
		cfg := config.Tiny().WithScheme(config.IRDWBScheme())
		mem := dram.New(cfg.DRAM)
		c, err := NewController(cfg, mem, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		is := NewIssuer(c, src)
		r := rng.New(5)
		now := uint64(0)
		for i := 0; i < 100; i++ {
			now = is.ReadBlock(now+8000, block.ID(r.Uint64n(c.o.DataBlocks())))
		}
		return c.st.Paths.Paths[block.PathDummy], c.st.Paths.Paths[block.PathDWB]
	}
	cands := make([]uint64, 64)
	for i := range cands {
		cands[i] = uint64(i * 37)
	}
	dummyOff, _ := run(nil)
	dummyOn, conv := run(newFakeDWB(cands...))
	if conv == 0 {
		t.Fatal("nothing converted")
	}
	if dummyOn >= dummyOff {
		t.Errorf("dummy paths %d with DWB >= %d without", dummyOn, dummyOff)
	}
}

// smallTreePaths counts the path accesses ρ ran on its small tree. Both
// trees count their paths in st.Paths, and every small-tree path moves
// fewer blocks than a main-tree one, so the shortfall in blocks read
// against all-main-tree paths counts them.
func smallTreePaths(c *Controller) uint64 {
	short := c.st.Paths.Total()*uint64(c.nPathBlocks) - c.st.Paths.BlocksRead
	return short / uint64(c.nPathBlocks-c.rho.nPathBlocks)
}

func TestRhoBasicOperation(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.RhoScheme())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	r := rng.New(9)
	now := uint64(0)
	for i := 0; i < 300; i++ {
		a := block.ID(r.Uint64n(1024))
		now = is.ReadBlock(now+900, a)
	}
	if smallTreePaths(c) == 0 {
		t.Fatal("rho never used the small tree")
	}
	if c.rho.members == 0 {
		t.Fatal("no blocks installed in the small tree")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.st.NonUniformIssues != 0 {
		t.Errorf("%d non-uniform issues", c.st.NonUniformIssues)
	}
}

func TestRhoReuseHitsSmallTree(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.RhoScheme())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	now := is.ReadBlock(0, 42)
	before := smallTreePaths(c)
	// Flush it out of the stash into the small tree with dummies, then
	// re-read: the access must be a small-tree path, not a main path.
	is.AdvanceTo(now + 30*c.o.IntervalT)
	mainBefore := c.st.Paths.Paths[block.PathData]
	is.ReadBlock(now+31*c.o.IntervalT, 42)
	if smallTreePaths(c) == before && c.st.Paths.Paths[block.PathData] > mainBefore {
		t.Error("re-read went to the main tree despite small-tree residency")
	}
}

func TestRhoDemotionDrains(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.RhoScheme())
	// Shrink the small tree hard so demotions happen quickly.
	cfg.Scheme.RhoLevelsDelta = 9
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	r := rng.New(3)
	now := uint64(0)
	for i := 0; i < 400; i++ {
		a := block.ID(r.Uint64n(c.o.DataBlocks()))
		now = is.ReadBlock(now+900, a)
	}
	if c.rho.members > c.rho.limit {
		t.Errorf("small tree holds %d members over limit %d", c.rho.members, c.rho.limit)
	}
	tagged := 0
	for id := block.ID(0); uint64(id) < c.pm.Total(); id++ {
		if _, ok := c.pm.Small(id); ok {
			tagged++
		}
	}
	if tagged != c.rho.members {
		t.Errorf("the position map tags %d blocks as small-tree residents, the small tree counts %d",
			tagged, c.rho.members)
	}
	is.AdvanceTo(now + 100*c.o.IntervalT)
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestRhoDemandEvictionFollowsPattern checks that a demand read under ρ
// issues main-tree background evictions only in the main-tree turns of the
// fixed main:small pattern: with the main F-Stash overfull and a
// small-tree resident requested, every main-tree path of the read must
// fall in a main-tree slot.
func TestRhoDemandEvictionFollowsPattern(t *testing.T) {
	is, c := newSystem(t, config.RhoScheme())
	r := rng.New(5)
	now := uint64(0)
	for i := 0; i < 300; i++ {
		now = is.ReadBlock(now+900, block.ID(r.Uint64n(1024)))
	}
	is.AdvanceTo(now + 30*c.o.IntervalT)
	// A resident in the small tree's memory levels: reading it takes a
	// small-tree path.
	target := block.Invalid
	c.rho.tr.Each(func(e tree.Entry, _ int, _ uint64) {
		if !target.Valid() {
			target = e.Addr
		}
	})
	if !target.Valid() {
		t.Fatal("no small-tree resident in the small tree's memory levels")
	}
	for !c.StashOverfull() {
		c.tr.ReadPathEach(c.randomLeaf(r), func(e tree.Entry, _ int) { c.fstash.Insert(e) })
	}
	slot0, paths0, blocks0 := is.slotIdx, c.st.Paths.Total(), c.st.Paths.BlocksRead
	is.ReadBlock(is.prevDone, target)

	slots := is.slotIdx - slot0
	if paths := c.st.Paths.Total() - paths0; paths != slots {
		t.Fatalf("%d path accesses in %d slots", paths, slots)
	}
	mainN, smallN := uint64(c.nPathBlocks), uint64(c.rho.nPathBlocks)
	mainPaths := (c.st.Paths.BlocksRead - blocks0 - slots*smallN) / (mainN - smallN)
	var mainSlots uint64
	for s := slot0; s < is.slotIdx; s++ {
		if s%uint64(c.cfg.Scheme.RhoPattern+1) == 0 {
			mainSlots++
		}
	}
	if mainPaths != mainSlots {
		t.Errorf("%d main-tree paths in %d slots, of which %d are main-tree turns", mainPaths, slots, mainSlots)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestPostWriteReturnsImmediatelyWhenRoom(t *testing.T) {
	is, _ := newSystem(t, config.Baseline())
	if got := is.PostWrite(1234, 7); got != 1234 {
		t.Errorf("PostWrite stalled to %d with an empty queue", got)
	}
}

// TestPostWriteProgressesWithOverfullStash is FuzzNewController's first
// find: an IR-ORAM tree with 11 of its 12 levels on-chip, holding 12,000
// data blocks against 8,192 memory slots, keeps the F-Stash over its
// eviction threshold. A posted-write queue at its bound then asked for
// background work forever, and background work was always a stash
// eviction, so PostWrite never returned. Every maxEvictRun evictions the
// queue head now gets a path, as a waiting demand read does.
func TestPostWriteProgressesWithOverfullStash(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.IROramScheme())
	o := &cfg.ORAM
	o.Levels, o.TopLevels = 12, 11
	o.Z = config.Uniform(12, 4)
	o.Z[0] = 14
	o.UserBlocks = 12000
	c, err := NewController(cfg, dram.New(cfg.DRAM), rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	now := uint64(0)
	for i := 0; i < 3*cfg.CPU.WriteQueueDepth; i++ {
		now = is.PostWrite(now, block.ID(i*53))
	}
	if !c.StashOverfull() {
		t.Fatalf("stash holds %d blocks, not over the eviction threshold", c.StashLen())
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAdvanceToIdempotent(t *testing.T) {
	is, c := newSystem(t, config.Baseline())
	is.AdvanceTo(10 * c.o.IntervalT)
	n := c.st.PathsIssued
	is.AdvanceTo(10 * c.o.IntervalT)
	if c.st.PathsIssued != n {
		t.Error("repeated AdvanceTo issued extra paths")
	}
}

func TestPostWriteNoTimingProtection(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	cfg.ORAM.IntervalT = 0
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	now := uint64(0)
	for i := 0; i < 3*cfg.CPU.WriteQueueDepth; i++ {
		now = is.PostWrite(now, block.ID(i*53))
	}
	is.AdvanceTo(now + 1_000_000)
	if len(is.writeQ) != 0 {
		t.Fatalf("write queue stuck at %d without pacing", len(is.writeQ))
	}
	if c.st.Paths.Paths[block.PathDummy] != 0 {
		t.Errorf("%d dummies with protection off", c.st.Paths.Paths[block.PathDummy])
	}
}

func TestDummyServiceOpportunisticallyDrainsStash(t *testing.T) {
	// A Path ORAM dummy is a read+write of a random path: its write phase
	// gives stashed blocks placement opportunities, which is why the paper
	// notes timing protection reduces background evictions (Section VI-A).
	is, c := newSystem(t, config.Baseline())
	r := rng.New(41)
	now := uint64(0)
	for i := 0; i < 60; i++ {
		now = is.ReadBlock(now+200, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	before := c.StashLen()
	if before == 0 {
		t.Skip("stash empty")
	}
	is.AdvanceTo(now + 200*c.o.IntervalT)
	if c.StashLen() >= before {
		t.Errorf("stash %d -> %d: dummies never drained it", before, c.StashLen())
	}
}
