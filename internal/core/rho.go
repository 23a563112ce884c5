package core

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// rhoState implements a faithful simplification of ρ (Nagarajan et al.,
// "Relaxed Hierarchical ORAM"), the state-of-the-art baseline of Fig 10:
//
//   - a second, smaller ORAM tree (Levels - RhoLevelsDelta levels, Z=RhoZ)
//     holds recently-used blocks, so the common case moves far fewer blocks
//     per path than the main tree;
//   - which tree holds a block is recorded alongside its leaf in the (same)
//     position map, so lookup cost rides the normal PLB/PTp machinery — the
//     member map below is simulation bookkeeping of that field, not an
//     extra on-chip structure;
//   - to defeat timing channels with two path lengths, accesses follow a
//     fixed issue pattern (1 main-tree slot per RhoPattern small-tree
//     slots) with per-slot dummies — the mechanism that hurts mcf in the
//     paper;
//   - small-tree residency is bounded; overflow victims are demoted to the
//     main tree lazily through the posted-write machinery (the paper's
//     delayed remapping, which is where LLC-D comes from).
//
// Simplifications vs the full design are documented in DESIGN.md.
type rhoState struct {
	// pathTree is the small tree; it runs the main tree's path-access
	// pipeline with a nil migration tally.
	pathTree
	// member records which blocks live in the small tree and under which
	// leaf — the simulation bookkeeping of the position-map residency bit.
	// It is consulted on every request (inSmallTree), so it is an
	// open-addressed table rather than a Go map; it is never iterated, so
	// it cannot perturb ordering. Values are the leaves, stored as the
	// table's uint32 payload.
	member  *stash.AddrTable
	order   []block.ID // FIFO for demotion
	limit   int
	demoteQ []block.ID
}

func (c *Controller) initRho() error {
	s := c.cfg.Scheme
	levels := c.o.Levels - s.RhoLevelsDelta
	if levels < 3 {
		return fmt.Errorf("core: rho tree would have %d levels", levels)
	}
	small := c.o
	small.Levels = levels
	// The ρ design keeps the small tree's top on-chip too; cap it so at
	// least four levels stay in memory.
	small.TopLevels = c.o.TopLevels
	if small.TopLevels > levels-4 {
		small.TopLevels = levels - 4
	}
	if small.TopLevels < 0 {
		small.TopLevels = 0
	}
	small.Z = config.Uniform(levels, s.RhoZ)
	slots := small.Z.Slots()
	c.rho = &rhoState{
		// The small tree shares the DRAM with the main tree, laid out after it.
		pathTree: newPathTree(small, small.TopLevels, c.mem, c.physEnd(), c.pm.Total()),
		member:   stash.NewAddrTable(int(slots / 2)),
		limit:    int(slots / 2),
	}
	if small.TopLevels > 0 {
		c.rho.top = stash.NewTopCache(levels, small.TopLevels, small.Z)
	}
	return nil
}

// inSmallTree reports whether block a lives in ρ's small tree. Small-tree
// membership is on-chip metadata, so residents need neither PosMap work
// nor a main-tree slot.
func (c *Controller) inSmallTree(a block.ID) bool {
	if c.rho == nil {
		return false
	}
	_, ok := c.rho.member.Get(a)
	return ok
}

// rhoDataAccess services a demand access for a small-tree resident block:
// one small-tree path access, then remap within the small tree. A hit in
// the small tree's on-chip top is served without a path access, like the
// main tree's dedicated cache.
func (c *Controller) rhoDataAccess(now uint64, a block.ID, write bool) uint64 {
	r := c.rho
	rawLeaf, ok := r.member.Get(a)
	if !ok {
		panic(fmt.Sprintf("core: rhoDataAccess for non-member %v", a))
	}
	leaf := block.Leaf(rawLeaf)
	if r.top != nil {
		if _, hit := r.top.Find(a, leaf); hit {
			c.st.TopHits++
			c.st.ServedRequests++
			return now + c.o.OnChipLatency
		}
	}
	found, _, done := c.pathAccess(&r.pathTree, now, leaf, a, block.PathData)
	if !found {
		if _, stashed := r.fstash.Lookup(a); !stashed {
			panic(fmt.Sprintf("core: rho member %v not on small path %d", a, leaf))
		}
	}
	newLeaf := r.randomLeaf(c.rng)
	r.member.Put(a, uint32(newLeaf))
	r.fstash.Insert(tree.Entry{Addr: a, Leaf: newLeaf})
	c.st.ServedRequests++
	return done
}

// rhoInstall moves a block just fetched from the main tree into the small
// tree, demoting the oldest resident when over the occupancy bound. The
// block was already extracted from the main tree by the fetching path
// access; its main-tree mapping is discarded until demotion.
func (c *Controller) rhoInstall(a block.ID) {
	r := c.rho
	c.pm.Unmap(a)
	leaf := r.randomLeaf(c.rng)
	r.member.Put(a, uint32(leaf))
	r.fstash.Insert(tree.Entry{Addr: a, Leaf: leaf})
	r.order = append(r.order, a)
	for r.member.Len() > r.limit && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		rawLeaf, ok := r.member.Get(victim)
		if !ok {
			continue // already demoted
		}
		vleaf := block.Leaf(rawLeaf)
		removed := r.fstash.Remove(victim)
		if !removed {
			_, removed = r.tr.Remove(victim, vleaf)
		}
		if !removed && (r.top == nil || !r.top.Remove(victim, vleaf)) {
			panic(fmt.Sprintf("core: rho member %v not in small structures", victim))
		}
		r.member.Delete(victim)
		r.demoteQ = append(r.demoteQ, victim)
	}
}

// rhoBackgroundSlot fills a small-tree pacing slot: background eviction of
// the small stash if pressured, else a small-tree dummy path.
func (c *Controller) rhoBackgroundSlot(now uint64) uint64 {
	r := c.rho
	if r.fstash.Overfull(c.o.StashEvictThreshold) {
		_, _, done := c.pathAccess(&r.pathTree, now, r.randomLeaf(c.rng), block.Invalid, block.PathEvict)
		c.st.BgEvictions++
		c.st.BgEvictionCycles += done - now
		return done
	}
	_, _, done := c.pathAccess(&r.pathTree, now, r.randomLeaf(c.rng), block.Invalid, block.PathDummy)
	c.st.DummyPaths++
	return done
}

// rhoSlotSmall reports whether the current pacing slot belongs to the small
// tree under the fixed 1:RhoPattern issue pattern.
func (is *Issuer) rhoSlotSmall() bool {
	period := uint64(is.c.cfg.Scheme.RhoPattern) + 1
	return is.slotIdx%period != 0
}

// drainDemotions moves pending ρ demotions into the posted-write queue.
func (is *Issuer) drainDemotions() {
	if is.c.rho == nil {
		return
	}
	for _, a := range is.c.rho.demoteQ {
		is.writeQ = append(is.writeQ, Job{Addr: a, Write: true})
	}
	is.c.rho.demoteQ = is.c.rho.demoteQ[:0]
}
