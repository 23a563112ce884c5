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
// the heap (TestPathAccessZeroAllocs and the other *ZeroAllocs gates); the
// metrics instruments embedded in Stats are updated by direct field writes
// (registration with a metrics.Registry happens once, in RegisterMetrics),
// and the opt-in epoch time series (Stats.EpochInterval) is the sole
// sanctioned exception.
package core

import (
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
	// nothing (guarded by TestPathAccessZeroAllocs and
	// TestEvictZeroAllocs). physBuf also holds the address lists of Ring ORAM
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

	// runBuf holds the DRAM run list of the phase being charged (built by
	// physRuns from physBuf), reused so path accesses stay allocation-free.
	runBuf []dram.Run

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

	// nPathBlocks is the tree's fixed per-path block count, so the hot path
	// never needs the address list just to know its length. The tree's DRAM
	// region starts at physOff.
	nPathBlocks int
	physOff     uint64

	// mig tallies each write phase's placements into Fig 5's migration
	// histograms; nil on ρ's small tree, which Fig 5 does not chart.
	mig *migTally
}

// newPathTree builds a tree of geometry o whose memory-resident levels
// start at minLevel, laid out in DRAM from physOff, with an F-Stash that
// can hold any of the unified space's blocks. The caller attaches the top
// store that holds levels [0, minLevel).
func newPathTree(o config.ORAM, minLevel int, mem *dram.Model, physOff, blocks uint64) pathTree {
	return pathTree{
		o:           o,
		minLevel:    minLevel,
		tr:          tree.New(o, minLevel),
		layout:      tree.NewLayout(o, minLevel, int(mem.RowBlocks())),
		fstash:      stash.NewFStash(blocks),
		nPathBlocks: o.Z.BlocksPerPath(minLevel),
		physOff:     physOff,
	}
}

// physEnd is the first DRAM slot past the tree's region.
func (t *pathTree) physEnd() uint64 { return t.physOff + t.layout.PhysicalSlots() }

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
	pm := posmap.New(o, r.Fork())
	c := &Controller{
		cfg:       cfg,
		pm:        pm,
		pathTree:  newPathTree(o, minLevel, mem, 0, pm.Total()),
		plb:       cache.New(o.PLBEntries/o.PLBWays, o.PLBWays),
		mem:       mem,
		rng:       r,
		st:        newStats(o.Levels),
		evictList: make([][]tree.Entry, o.Levels),
	}
	c.mig = newMigTally(c.st)
	// The gather closure stages path blocks in c.gathered instead of
	// inserting them into the stash: the eviction drain that runs one walk
	// later would take them right back out, so the round-trip (an append
	// and a membership bit set, then cleared, per block) would be pure
	// overhead. DrainForPath folds the staged blocks in with the exact
	// ordering the insert/remove sequence would have produced. Staged
	// entries carry tree.GatherFlag — the this-path provenance bit the
	// write phase strips into onPlace's fetched argument — so no membership
	// set is consulted per placement. The extracted target never reaches
	// the write phase flagged: it is remapped and re-Inserted (or parked in
	// the LLC) by the caller.
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
// deepest bucket first (tree.Load, the bulk form of placing the blocks one
// at a time in id order), spilling to the on-chip top store and then to
// the stash (which background eviction will drain during warm-up), in id
// order.
func (c *Controller) initPlacement() {
	for _, e := range c.tr.Load(c.pm.Total(), c.pm.Leaf, nil) {
		if !c.placeInTop(e) {
			c.fstash.Insert(e)
		}
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

// physRuns groups the addresses in physBuf, each offset by off, into DRAM
// runs and returns them (in runBuf, valid until the next call).
func (c *Controller) physRuns(off uint64) []dram.Run {
	c.runBuf = c.mem.AppendRuns(c.physBuf, off, c.runBuf[:0])
	return c.runBuf
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
// from the path's run list, one walk over the path moves every
// block straight into the stash (recording the target's level in passing,
// where the reference shape pays a separate tree.Find walk), the eviction
// walk refills it, and the write phase posts from the same run list. The
// multi-walk, build-per-phase shape is retained in access_reference.go
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
	// form. The write phase below reuses the same run list.
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	runs := c.physRuns(t.physOff)
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
	c.evictBuf = evictOntoPath(t.fstash, t.tr, t.top, t.o.Z, t.minLevel,
		t.o.Levels, leaf, c.gathered, c.evictList, c.evictBuf, nil, t.mig)

	// Write phase DRAM traffic: the same physical blocks, written. The
	// batch is posted (its completion time is not waited on); it occupies
	// the channel buses and delays whatever issues next.
	writeDone := c.mem.PostWriteRuns(readDone, runs)
	c.st.PhaseWriteBackCycles += writeDone - readDone

	c.st.Paths.Add(ptype, t.nPathBlocks, t.nPathBlocks)
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
