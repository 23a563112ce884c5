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
// The returned cycle is when the switch (flush + write-back + reload)
// completes; outside the TCB it looks like a burst of ordinary path
// accesses followed by a sequential spill.
func (c *Controller) ContextSwitch(now uint64) uint64 {
	done := now

	// 1. Flush the F-Stash: a path access along a stashed block's own leaf
	// always gives it a placement opportunity at every level of its path.
	// A handful of rounds empties the stash at normal load; the cap keeps
	// a pathological state from wedging the switch.
	for round := 0; round < 8 && c.fstash.Len() > 0; round++ {
		var leaves []block.Leaf
		c.fstash.Each(func(e tree.Entry) {
			leaves = append(leaves, e.Leaf)
		})
		for _, leaf := range leaves {
			if c.fstash.Len() == 0 {
				break
			}
			_, _, d := c.treeAccess(done, leaf, block.Invalid, block.PathEvict)
			done = d
			c.st.BgEvictions++
		}
	}

	// 2. Seal and spill the tree-top contents to their memory home (a
	// reserved region past the last tree: ρ's small tree follows the main
	// tree), then reload on resume. The blocks stay logically in the top
	// store; only the traffic and time are modelled, exactly like the
	// paper's "written back ... then rebuilt".
	if c.top != nil {
		spillBase := c.physEnd()
		if c.rho != nil {
			spillBase = c.rho.physEnd()
		}
		slots := 0
		for l := 0; l < c.minLevel; l++ {
			slots += int(c.top.CapacityAt(l))
		}
		c.physBuf = c.physBuf[:0]
		for j := 0; j < slots; j++ {
			c.physBuf = append(c.physBuf, spillBase+uint64(j))
		}
		runs := c.physRuns(0)
		done = c.mem.ServiceRuns(done, runs, true)
		done = c.mem.ServiceRuns(done, runs, false)
	}

	c.st.ContextSwitches++
	return done + c.o.OnChipLatency
}
