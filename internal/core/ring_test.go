package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
)

func newRingSystem(t *testing.T, sch config.Scheme) (*Issuer, *Controller) {
	t.Helper()
	cfg := config.Tiny().WithScheme(sch)
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	return NewIssuer(c, nil), c
}

func TestRingBasicOperation(t *testing.T) {
	is, c := newRingSystem(t, config.RingScheme())
	r := rng.New(9)
	now := uint64(0)
	for i := 0; i < 400; i++ {
		a := block.ID(r.Uint64n(c.o.DataBlocks()))
		now = is.ReadBlock(now+800, a)
	}
	if c.st.ServedRequests != 400 {
		t.Fatalf("served %d", c.st.ServedRequests)
	}
	if c.ring.EvictPaths == 0 {
		t.Fatal("no eviction paths under Ring")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if c.st.NonUniformIssues != 0 {
		t.Errorf("%d issue-gap violations", c.st.NonUniformIssues)
	}
}

// TestRingReadsMoveFewerBlocks is the protocol's point: the per-access DRAM
// traffic (reads amortized with reshuffles and evictions) is well below the
// Path ORAM baseline's 2*L*Z blocks.
func TestRingReadsMoveFewerBlocks(t *testing.T) {
	run := func(sch config.Scheme) float64 {
		is, c := newRingSystem(t, sch)
		r := rng.New(3)
		now := uint64(0)
		for i := 0; i < 400; i++ {
			now = is.ReadBlock(now+600, block.ID(r.Uint64n(c.o.DataBlocks())))
		}
		return float64(c.st.Paths.BlocksRead+c.st.Paths.BlocksWrit) /
			float64(c.st.Paths.Total())
	}
	ring := run(config.RingScheme())
	path := run(config.Baseline())
	if ring >= path {
		t.Errorf("Ring moves %.1f blocks per access, Path ORAM %.1f", ring, path)
	}
}

// TestRingEvictionCadence: one eviction path per RingA reads.
func TestRingEvictionCadence(t *testing.T) {
	is, c := newRingSystem(t, config.RingScheme())
	r := rng.New(5)
	now := uint64(0)
	for i := 0; i < 300; i++ {
		now = is.ReadBlock(now+600, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	reads := c.st.Paths.Total() - c.st.Paths.Paths[block.PathEvict]
	wantEvicts := reads / uint64(c.cfg.Scheme.RingA)
	got := c.ring.EvictPaths
	if got < wantEvicts/2 || got > wantEvicts*2 {
		t.Errorf("evict paths %d for %d reads (A=%d), want about %d",
			got, reads, c.cfg.Scheme.RingA, wantEvicts)
	}
}

// TestRingReshufflesHappen: sustained reads must exhaust bucket dummies and
// trigger early reshuffles.
func TestRingReshufflesHappen(t *testing.T) {
	is, c := newRingSystem(t, config.RingScheme())
	r := rng.New(7)
	now := uint64(0)
	for i := 0; i < 600; i++ {
		now = is.ReadBlock(now+500, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	if c.ring.Reshuffles == 0 {
		t.Error("no early reshuffles despite sustained reads")
	}
}

// TestRingStashBounded: eviction paths must keep draining the stash.
func TestRingStashBounded(t *testing.T) {
	is, c := newRingSystem(t, config.RingScheme())
	r := rng.New(11)
	now := uint64(0)
	for i := 0; i < 800; i++ {
		now = is.ReadBlock(now+400, block.ID(r.Uint64n(c.o.DataBlocks())))
	}
	if c.fstash.Len() > c.o.StashCapacity {
		t.Errorf("stash at %d over capacity %d", c.fstash.Len(), c.o.StashCapacity)
	}
}

func TestRingComposesWithIRAlloc(t *testing.T) {
	// The Section VII orthogonality claim: Ring + the IR-Alloc profile
	// still serves correctly and moves fewer eviction/reshuffle blocks.
	run := func(sch config.Scheme) (uint64, uint64) {
		is, c := newRingSystem(t, sch)
		r := rng.New(13)
		now := uint64(0)
		for i := 0; i < 400; i++ {
			now = is.ReadBlock(now+600, block.ID(r.Uint64n(c.o.DataBlocks())))
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
		return c.st.Paths.BlocksRead + c.st.Paths.BlocksWrit, c.st.ServedRequests
	}
	ringBlocks, served := run(config.RingScheme())
	allocBlocks, served2 := run(config.RingIRAlloc())
	if served != 400 || served2 != 400 {
		t.Fatalf("served %d / %d", served, served2)
	}
	if allocBlocks >= ringBlocks {
		t.Errorf("Ring+IR-Alloc moved %d blocks, plain Ring %d", allocBlocks, ringBlocks)
	}
}

func TestReverseLexLeafCoversTree(t *testing.T) {
	_, c := newRingSystem(t, config.RingScheme())
	seen := map[block.Leaf]bool{}
	n := int(c.o.LeafCount())
	for i := 0; i < n; i++ {
		seen[c.reverseLexLeaf(uint64(i))] = true
	}
	if len(seen) != n {
		t.Errorf("reverse-lex order visited %d of %d leaves", len(seen), n)
	}
	// Consecutive evictions must diverge early (opposite tree halves).
	a, b := c.reverseLexLeaf(0), c.reverseLexLeaf(1)
	half := block.Leaf(c.o.LeafCount() / 2)
	if (a < half) == (b < half) {
		t.Errorf("consecutive evictions %d and %d in the same half", a, b)
	}
}
