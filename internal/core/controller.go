// Package core implements the paper's primary contribution: the Path ORAM
// controller with Freecursive recursion, the dedicated tree-top cache
// baseline, background eviction, timing-channel protection, and the three
// IR-ORAM techniques (IR-Alloc via per-level Z profiles, IR-Stash via the
// double-indexed S-Stash, IR-DWB via dummy-to-writeback conversion), plus
// the compared designs ρ and LLC-D.
//
// The controller separates two concerns:
//
//   - Controller (this file / access.go): the Path ORAM protocol — position
//     map resolution, path read/remap/write phases, stash and tree-top
//     management. Every protocol action that touches DRAM happens inside a
//     "path access". The main tree and ρ's small tree are both pathTrees
//     and run one path-access pipeline (pathAccess), which takes the tree
//     as an argument.
//   - Issuer (issuer.go): when path accesses are allowed to happen. With
//     timing protection, exactly one path access leaves the controller
//     every T cycles; the issuer fills slots with demand work, posted
//     writes, background eviction, IR-DWB conversions, or pure dummies —
//     indistinguishable from outside the TCB.
//
// Two contracts bind every function on the access path. Determinism: all
// randomness is drawn from the rng streams handed in at construction, so a
// (config, seed) pair fully determines every counter, histogram and epoch
// in Stats — the basis of the experiment engine's byte-identical-output
// guarantee. Zero allocations: steady-state path accesses must not touch
// the heap (TestPathAccessZeroAllocs, `make alloccheck`); the metrics
// instruments embedded in Stats are updated by direct field writes
// (registration with a metrics.Registry happens once, in RegisterMetrics),
// and the opt-in epoch time series (Stats.EpochInterval) is the sole
// sanctioned exception.
package core

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/cache"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/posmap"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// Controller is the on-chip ORAM controller: control logic, stash(es),
// position map, PLB, and (optionally) the tree-top store.
type Controller struct {
	cfg config.System
	// pathTree is the main ORAM tree; c.o, c.tr, c.fstash, c.top and the
	// rest of its fields are the main tree's.
	pathTree
	pm     *posmap.Map
	topIdx stash.AddrIndex // non-nil only for IR-Stash
	plb    *cache.Cache
	mem    *dram.Model
	rng    *rng.Source
	st     *Stats

	rho  *rhoState  // non-nil when the ρ scheme is active
	ring *ringState // non-nil when the Ring ORAM protocol is active

	// refPipeline routes pathAccess through the retained multi-walk
	// reference implementation (access_reference.go). Tests flip it to pin
	// the fused pipeline differentially.
	refPipeline bool

	// Scratch buffers reused across path accesses of either tree (the two
	// never run concurrently), so the steady-state hot path allocates
	// nothing (guarded by TestPathAccessZeroAllocs and the make-check
	// benchmark gate). physBuf also holds the address lists of Ring ORAM
	// reads and evictions and of the context-switch spill.
	physBuf   []uint64
	readBuf   []tree.Entry   // read-phase entries (tree + top segment)
	evictList [][]tree.Entry // per-level candidates for evictOntoPath
	evictBuf  []tree.Entry   // eviction candidate pool / spillover
	gathered  []tree.Entry   // read-walk scratch: path blocks bound for the drain

	// Fused-gather state: gather is built once and walks the tree + top
	// segment of a path, staging blocks for the drain while watching for
	// gTarget — the single-walk replacement for the
	// ReadPath-into-buffer-then-scan shape the reference keeps.
	gather  func(tree.Entry, int)
	gTarget block.ID
	gFound  bool
	gLevel  int

	// fl, when non-nil, receives cycle-stamped span events for sampled
	// path accesses (see AttachFlight). A nil recorder is inert, so the
	// hot path pays one branch when tracing is off. Kept at the struct
	// tail so attaching the tracer does not shift the hot fields above.
	fl *flight.Recorder
}

// pathTree is one Path ORAM tree with everything the path-access pipeline
// reads from it. The controller's main tree and ρ's small tree are both
// pathTrees and run the same pipeline (pathAccess, pathAccessReference);
// where the two differ, the difference is data here — geometry, DRAM
// offset, a nil migration tally on the small tree — never a branch on
// which tree is running.
type pathTree struct {
	o        config.ORAM
	minLevel int // first memory-resident level; [0, minLevel) live in top
	tr       *tree.Tree
	layout   *tree.Layout
	top      stash.TopStore // nil when no level is on-chip
	fstash   *stash.FStash

	// sched memoizes the tree's per-leaf DRAM run lists; nPathBlocks is its
	// fixed per-path block count, so the hot path never needs the address
	// list just to know its length. The tree's DRAM region starts at
	// physOff.
	sched       *dram.PathSched
	nPathBlocks int
	physOff     uint64

	// mig tallies each write phase's placements for Fig 5's migration
	// split; nil on ρ's small tree, which Fig 5 does not chart.
	mig *placeCounts
	// paths counts the path accesses run on this tree.
	paths uint64
}

// defaultSchedSlots caps the auto-sized schedule cache: 8192 slots of
// scaled-geometry run lists are ~1.5 MB — enough to make repeat leaves and
// warm benchmark loops all-hit without scaling storage with the tree.
const defaultSchedSlots = 8192

// newPathTree builds a tree of geometry o whose memory-resident levels
// start at minLevel, laid out in DRAM from physOff, with a schedule cache
// of min(defaultSchedSlots, leaves) slots. The caller attaches the top
// store that holds levels [0, minLevel).
func newPathTree(o config.ORAM, minLevel int, mem *dram.Model, physOff uint64) pathTree {
	n := o.Z.BlocksPerPath(minLevel)
	return pathTree{
		o:           o,
		minLevel:    minLevel,
		tr:          tree.New(o, minLevel),
		layout:      tree.NewLayout(o, minLevel, int(mem.RowBlocks())),
		fstash:      stash.NewFStash(o.StashCapacity),
		sched:       mem.NewPathSched(int(min(defaultSchedSlots, o.LeafCount())), n, physOff),
		nPathBlocks: n,
		physOff:     physOff,
	}
}

// physEnd is the first DRAM slot past the tree's region.
func (t *pathTree) physEnd() uint64 { return t.physOff + t.layout.PhysicalSlots() }

// occupied counts the real blocks held by the tree, its top store and its
// F-Stash.
func (t *pathTree) occupied() uint64 {
	n := t.tr.Occupied() + uint64(t.fstash.Len())
	if t.top != nil {
		n += uint64(t.top.Len())
	}
	return n
}

// randomLeaf draws a uniform leaf of the tree from r.
func (t *pathTree) randomLeaf(r *rng.Source) block.Leaf {
	return block.Leaf(r.Uint64n(t.o.LeafCount()))
}

// AttachFlight wires a flight recorder into the access pipeline: every
// fused path access, on the main tree and on ρ's small tree alike, counts
// toward the recorder's 1-in-N sample and, when armed, records its read,
// decrypt and posted-writeback phase spans plus the whole-access span
// tagged with path type and leaf — the adversary's view of the access,
// which the security tests read back. The issuer adds per-slot occupancy
// samples and disarms the recorder when it accounts the slot. The
// reference pipeline and Ring ORAM's one-block-per-bucket read do not
// sample; a Ring eviction path or context-switch flush access that does
// leaves the recorder armed for the dummy slots or spill serviced right
// after it. Recording only observes — no RNG draws, no timing changes — so
// every counter, histogram and byte of stdout is identical with tracing on
// or off.
func (c *Controller) AttachFlight(fl *flight.Recorder) { c.fl = fl }

// NewController builds and initializes a controller: the position map is
// randomized, and every block of the unified space is placed into the tree
// (deepest-first along its path), overflowing into the tree-top store and
// finally the stash — the steady-state reached by the paper's
// "initialize-by-accessing-every-block" procedure.
func NewController(cfg config.System, mem *dram.Model, r *rng.Source) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	o := cfg.ORAM
	minLevel := 0
	if cfg.Scheme.Top != config.TopNone {
		minLevel = o.TopLevels
	}
	c := &Controller{
		cfg:       cfg,
		pm:        posmap.New(o, r.Fork()),
		pathTree:  newPathTree(o, minLevel, mem, 0),
		plb:       cache.New(o.PLBEntries/o.PLBWays, o.PLBWays),
		mem:       mem,
		rng:       r,
		st:        newStats(o.Levels),
		evictList: make([][]tree.Entry, o.Levels),
	}
	c.mig = newPlaceCounts(o.Levels)
	// The gather closure stages path blocks in c.gathered instead of
	// inserting them into the stash: the eviction drain that runs one walk
	// later would take them right back out, and the index round-trip (a
	// hash insert plus a swap-maintaining removal per block) is the single
	// largest per-path cost the fused pipeline eliminates. DrainForPath
	// folds the staged blocks in with the exact ordering the insert/remove
	// sequence would have produced. Staged entries carry tree.GatherFlag —
	// the this-path provenance bit the write phase strips into onPlace's
	// fetched argument — so no membership set is consulted per placement.
	// The extracted target never reaches the write phase flagged: it is
	// remapped and re-Inserted (or parked in the LLC) by the caller.
	c.gather = func(e tree.Entry, level int) {
		if e.Addr == c.gTarget {
			c.gFound, c.gLevel = true, level
			return
		}
		e.Leaf |= tree.GatherFlag
		c.gathered = append(c.gathered, e)
	}
	switch cfg.Scheme.Top {
	case config.TopDedicated:
		c.top = stash.NewTopCache(o.Levels, o.TopLevels, o.Z)
	case config.TopIRStash:
		irs := stash.NewIRStash(o.Levels, o.TopLevels, o.Z, o.SStashWays)
		c.top = irs
		c.topIdx = irs
	}
	if cfg.Scheme.Rho {
		if err := c.initRho(); err != nil {
			return nil, err
		}
	}
	if cfg.Scheme.Ring {
		c.initRing()
	}
	c.initPlacement()
	return c, nil
}

// initPlacement distributes every unified block along its assigned path,
// deepest bucket first, spilling to the on-chip top store and then to the
// stash (which background eviction will drain during warm-up).
func (c *Controller) initPlacement() {
	total := block.ID(c.pm.Total())
	for id := block.ID(0); id < total; id++ {
		e := tree.Entry{Addr: id, Leaf: c.pm.Leaf(id)}
		if _, ok := c.tr.Place(e); ok {
			continue
		}
		if c.placeInTop(e) {
			continue
		}
		c.fstash.Insert(e)
	}
}

// placeInTop tries the top-store buckets of e's path, deepest first.
func (c *Controller) placeInTop(e tree.Entry) bool {
	if c.top == nil {
		return false
	}
	for l := c.minLevel - 1; l >= 0; l-- {
		if c.top.Fill(l, e.Leaf, e) {
			return true
		}
	}
	return false
}

// Stats exposes the collected statistics.
func (c *Controller) Stats() *Stats { return c.st }

// StashLen returns the current F-Stash occupancy.
func (c *Controller) StashLen() int { return c.fstash.Len() }

// StashOverfull reports whether background eviction is required.
func (c *Controller) StashOverfull() bool {
	return c.fstash.Overfull(c.o.StashEvictThreshold)
}

// Utilization returns per-level space utilization with the on-chip top
// levels overlaid from the top store — the Fig 3 measurement.
func (c *Controller) Utilization() []float64 {
	u := c.tr.Utilization()
	if c.top != nil {
		for l := 0; l < c.minLevel; l++ {
			if capAt := c.top.CapacityAt(l); capAt > 0 {
				u[l] = float64(c.top.OccupiedAt(l)) / float64(capAt)
			}
		}
	}
	return u
}

// BlocksPerPath returns the per-path DRAM block count of the main tree.
func (c *Controller) BlocksPerPath() int { return c.nPathBlocks }

// pathRuns returns the memoized DRAM run list for a path of t, building
// and installing it on a cache miss (the only case that still generates
// the path's physical address list).
func (c *Controller) pathRuns(t *pathTree, leaf block.Leaf) []dram.Run {
	if runs, ok := t.sched.Lookup(uint64(leaf)); ok {
		return runs
	}
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	return t.sched.Install(uint64(leaf), c.physBuf)
}

// pathAccess is the protocol primitive, run on either tree t: read phase
// (DRAM batch + on-chip segment), stash fill, then the greedy
// deepest-first write phase. target (if valid) is extracted instead of
// being stashed; found reports whether it was on the path, and foundLevel
// is the memory-resident level it was read from (-1 when absent or found
// in the on-chip top segment).
//
// The returned time is when the requested block is available — the read
// phase plus the fixed decrypt/authenticate latency. The write phase is
// posted to the DRAM write queue and drains in the background; the next
// path access naturally queues behind it on the channel buses, so in
// steady state the controller is limited by exactly the per-path block
// traffic that IR-Alloc reduces.
//
// This is the fused single-walk pipeline: the DRAM read phase is charged
// from the memoized per-leaf run list, one walk over the path moves every
// block straight into the stash (recording the target's level in passing,
// where the reference shape pays a separate tree.Find walk), the eviction
// walk refills it, and the write phase posts from the same run list. The
// multi-walk, fresh-address-list shape is retained in access_reference.go
// and pinned against this one by TestFusedPipelineMatchesReference.
func (c *Controller) pathAccess(t *pathTree, now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	if c.refPipeline {
		return c.pathAccessReference(t, now, leaf, target, ptype)
	}
	// Arm (or not) the flight recorder for this access before the read
	// phase so the DRAM hooks see the sampling decision; the issuer
	// disarms when it accounts the finished slot.
	c.fl.SampleAccess()
	// Read phase: the memory segment of the path, serviced in run-length
	// form (no address list, no per-address decomposition on repeat leaves).
	runs := c.pathRuns(t, leaf)
	readDone := c.mem.ServiceRuns(now, runs, false)
	c.st.PhaseReadCycles += readDone - now

	// Walk 1: gather. Every real block on the path is staged for the drain
	// (or extracted, if it is the target) as it is removed.
	c.gathered = c.gathered[:0]
	c.gTarget, c.gFound, c.gLevel = target, false, -1
	t.tr.ReadPathEach(leaf, c.gather)
	if t.top != nil {
		t.top.ReadPathEach(leaf, c.gather)
	}
	found, foundLevel = c.gFound, c.gLevel
	if foundLevel < t.minLevel {
		foundLevel = -1 // absent, or read from the on-chip segment
	}

	// Walk 2: single-pass deepest-first eviction, memory levels bulk
	// filled and the on-chip segment honoring S-Stash conflict refusals
	// ("skip picking this block for this round"). See eviction.go.
	t.mig.reset()
	c.evictBuf = evictOntoPath(t.fstash, t.tr, t.top, t.o.Z, t.minLevel,
		t.o.Levels, leaf, c.gathered, c.evictList, c.evictBuf, nil, t.mig)
	t.mig.flush(c.st)

	// Write phase DRAM traffic: the same physical blocks, written. The
	// batch is posted (its completion time is not waited on); it occupies
	// the channel buses and delays whatever issues next.
	writeDone := c.mem.PostWriteRuns(readDone, runs)
	c.st.PhaseWriteBackCycles += writeDone - readDone

	c.st.Paths.Add(ptype, t.nPathBlocks, t.nPathBlocks)
	t.paths++
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	if c.fl.Armed() {
		c.recordPhases(now, readDone, writeDone, done, leaf, ptype)
	}
	return found, foundLevel, done
}

// recordPhases emits the four spans of one sampled path access: the DRAM
// read burst, the posted writeback burst (overlapping later work), the
// on-chip decrypt/gather/evict latency, and the whole access.
func (c *Controller) recordPhases(now, readDone, writeDone, done uint64,
	leaf block.Leaf, ptype block.PathType) {
	c.fl.Record(flight.Event{Start: now, End: readDone,
		Kind: flight.KindPhaseRead, Sub: uint8(ptype)})
	c.fl.Record(flight.Event{Start: readDone, End: writeDone,
		Kind: flight.KindPhaseWrite, Sub: uint8(ptype)})
	c.fl.Record(flight.Event{Start: readDone, End: done,
		Kind: flight.KindPhaseDecrypt, Sub: uint8(ptype)})
	c.fl.Record(flight.Event{Start: now, End: done, Arg: uint64(leaf),
		Kind: flight.KindAccess, Sub: uint8(ptype)})
}

// treeAccess dispatches the main-tree access primitive: Ring ORAM's
// one-block-per-bucket read when the Ring protocol is active, the Path ORAM
// read+write path otherwise. foundLevel follows the pathAccess contract:
// the memory level the target was read from, or -1.
func (c *Controller) treeAccess(now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	if c.ring != nil {
		return c.ringAccess(now, leaf, target, ptype)
	}
	return c.pathAccess(&c.pathTree, now, leaf, target, ptype)
}

// backgroundEvict performs one background-eviction path access (Ren et
// al.): a random path read+write that gives stashed blocks placement
// opportunities. Indistinguishable from any other path access outside the
// TCB. Under Ring ORAM the eviction path plays this role.
func (c *Controller) backgroundEvict(now uint64) uint64 {
	var done uint64
	if c.ring != nil {
		done = c.ringEvictPath(now)
	} else {
		_, _, done = c.pathAccess(&c.pathTree, now, c.randomLeaf(c.rng), block.Invalid, block.PathEvict)
	}
	c.st.BgEvictions++
	c.st.BgEvictionCycles += done - now
	return done
}

// dummyPath performs one PT_m access on a random leaf. Like background
// eviction it opportunistically drains the stash during its write phase
// (Path ORAM) or consumes bucket dummies exactly like a missing read
// (Ring ORAM).
func (c *Controller) dummyPath(now uint64) uint64 {
	_, _, done := c.treeAccess(now, c.randomLeaf(c.rng), block.Invalid, block.PathDummy)
	c.st.DummyPaths++
	return done
}

// CheckInvariants walks the whole system and verifies single-residency and
// capacity invariants; tests call it after workloads. It returns the first
// violation found.
func (c *Controller) CheckInvariants() error {
	seen := make(map[block.ID]string, c.pm.Total())
	note := func(id block.ID, where string) error {
		if prev, dup := seen[id]; dup {
			return fmt.Errorf("core: block %v in both %s and %s", id, prev, where)
		}
		seen[id] = where
		return nil
	}
	var err error
	c.fstash.EachUntil(func(e tree.Entry) bool {
		err = note(e.Addr, "fstash")
		return err == nil
	})
	if err != nil {
		return err
	}
	// Tree blocks: verify via per-leaf path reads would be destructive;
	// instead verify counts: every block is somewhere.
	total := c.occupied() + uint64(c.plbResident())
	if c.rho != nil {
		total += c.rho.occupied()
	}
	expect := c.pm.Total()
	if c.cfg.Scheme.DelayedRemap || c.rho != nil {
		// Blocks held out (in the LLC / pending reinsert) are allowed to
		// be missing; only over-counting is a bug.
		if total > expect {
			return fmt.Errorf("core: %d blocks resident, expected at most %d", total, expect)
		}
		return nil
	}
	if total != expect {
		return fmt.Errorf("core: %d blocks resident, expected %d", total, expect)
	}
	return nil
}

// plbResident counts PosMap blocks currently owned by the PLB.
func (c *Controller) plbResident() int {
	n := 0
	for id := block.ID(c.pm.DataBlocks()); id < block.ID(c.pm.Total()); id++ {
		if c.plb.Contains(uint64(id)) {
			n++
		}
	}
	return n
}
