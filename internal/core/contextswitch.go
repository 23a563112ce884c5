package core

import (
	"iroram/internal/block"
	"iroram/internal/tree"
)

// ContextSwitch implements the protocol of Section IV-C: at a context
// switch the F-Stash is flushed into the ORAM tree (targeted path accesses
// place each stashed block on its own path), the on-chip tree-top contents
// are sealed and written back to their memory locations, and the TT table
// is discarded; resuming reads the tree top back and rebuilds the table.
// Under ρ the small tree's F-Stash and top store go the same way, after
// the main tree's. The returned cycle is when the switch (flush +
// write-back + reload) completes; outside the TCB it looks like a burst of
// ordinary path accesses followed by a sequential spill.
func (c *Controller) ContextSwitch(now uint64) uint64 {
	done := c.flushStash(&c.pathTree, now)
	if c.rho != nil {
		done = c.flushStash(&c.rho.pathTree, done)
	}

	// Seal and spill the tree-top contents to their memory home (a
	// reserved region past the last tree: ρ's small tree follows the main
	// tree), then reload on resume. The main tree's top store spills
	// first, ρ's small one right after it. The blocks stay logically in
	// the top stores; only the traffic and time are modelled, exactly like
	// the paper's "written back ... then rebuilt".
	slots := c.topSlots()
	spillBase := c.physEnd()
	if c.rho != nil {
		slots += c.rho.topSlots()
		spillBase = c.rho.physEnd()
	}
	if slots > 0 {
		c.physBuf = c.physBuf[:0]
		for j := uint64(0); j < slots; j++ {
			c.physBuf = append(c.physBuf, spillBase+j)
		}
		runs := c.physRuns(0)
		done = c.mem.ServiceRuns(done, runs, true)
		done = c.mem.ServiceRuns(done, runs, false)
	}

	c.st.ContextSwitches++
	return done + c.o.OnChipLatency
}

// flushStash empties t's F-Stash from cycle done and returns when the
// flush completes: a path access along a stashed block's own leaf always
// gives it a placement opportunity at every level of its path. A handful
// of rounds empties the stash at normal load; the cap keeps a
// pathological state from wedging the switch. A Ring read places no
// stashed block, so a Ring tree flushes with its eviction path (the
// read+write pass that drains the stash) along each leaf instead.
func (c *Controller) flushStash(t *pathTree, done uint64) uint64 {
	for round := 0; round < 8 && t.fstash.Len() > 0; round++ {
		var leaves []block.Leaf
		t.fstash.Each(func(e tree.Entry) {
			leaves = append(leaves, e.Leaf)
		})
		for _, leaf := range leaves {
			if t.fstash.Len() == 0 {
				break
			}
			if c.ring != nil { // Ring has no small tree: t is the main one
				done = c.ringEvict(done, leaf)
			} else {
				_, _, done = c.pathAccess(t, done, leaf, block.Invalid, block.PathEvict)
			}
			c.st.BgEvictions++
		}
	}
	return done
}

// topSlots is the slot count of t's top store, 0 without one.
func (t *pathTree) topSlots() uint64 {
	var n uint64
	for l := 0; t.top != nil && l < t.minLevel; l++ {
		n += t.top.CapacityAt(l)
	}
	return n
}
