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
//     position map: a resident's entry holds its small-tree leaf under a
//     tree tag (posmap.Map.SetSmall), so the map stays the one record of
//     every block's location;
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
	// members counts the small tree's residents; the position map records
	// which blocks they are and under which leaf.
	members int
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
	_, ok := c.pm.Small(a)
	return ok
}

// rhoDataAccess services a demand access for a small-tree resident block:
// one small-tree path access, then remap within the small tree. A hit in
// the small tree's on-chip top is served without a path access, like the
// main tree's dedicated cache.
func (c *Controller) rhoDataAccess(now uint64, a block.ID, write bool) uint64 {
	r := c.rho
	leaf, ok := c.pm.Small(a)
	if !ok {
		panic(fmt.Sprintf("core: rhoDataAccess for non-member %v", a))
	}
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
	c.pm.SetSmall(a, newLeaf)
	r.fstash.Insert(tree.Entry{Addr: a, Leaf: newLeaf})
	c.st.ServedRequests++
	return done
}

// rhoInstall moves a block just fetched from the main tree into the small
// tree, demoting the oldest resident when over the occupancy bound. The
// block was already extracted from the main tree by the fetching path
// access; its position-map entry now holds its small-tree leaf, and a
// demotion unmaps it until the posted write reinserts it into the main
// tree.
func (c *Controller) rhoInstall(a block.ID) {
	r := c.rho
	leaf := r.randomLeaf(c.rng)
	c.pm.SetSmall(a, leaf)
	r.members++
	r.fstash.Insert(tree.Entry{Addr: a, Leaf: leaf})
	r.order = append(r.order, a)
	for r.members > r.limit && len(r.order) > 0 {
		victim := r.order[0]
		r.order = r.order[1:]
		vleaf, ok := c.pm.Small(victim)
		if !ok {
			continue // already demoted
		}
		removed := r.fstash.Remove(victim)
		if !removed {
			_, removed = r.tr.Remove(victim, vleaf)
		}
		if !removed && (r.top == nil || !r.top.Remove(victim, vleaf)) {
			panic(fmt.Sprintf("core: rho member %v not in small structures", victim))
		}
		c.pm.Unmap(victim)
		r.members--
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
