package core

import (
	"iroram/internal/block"
	"iroram/internal/tree"
)

// This file retains the pre-fusion, multi-walk shape of the path access as
// a reference implementation: the production pipeline (pathAccess) does
// the read-gather, stash insert, target extraction and writeback posting
// in a single walk over the path serviced from memoized run lists; the
// reference rebuilds the physical address list every time and services it
// through ServicePath/PostWritePath — a fresh run build per phase, so the
// lockstep comparison also pins the dram.PathSched memo — resolves the
// target's level with a separate tree.Find walk, stages the read phase
// through readBuf before scanning it, and splits Fig 5's migration tally
// from a membership map instead of tree.GatherFlag. DRAM timing itself has
// one implementation (internal/dram's run-length service); its per-address
// oracle lives in that package's oracle_test.go. Both pipelines must
// produce identical timing, statistics, stash order and tree state for
// every access on either tree; TestFusedPipelineMatchesReference drives
// whole workloads through each and compares. Controller.refPipeline routes
// pathAccess here.

// pathAccessReference is the multi-walk path access on tree t.
func (c *Controller) pathAccessReference(t *pathTree, now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	foundLevel = -1
	if lvl, ok := t.tr.Find(target, leaf); ok {
		foundLevel = lvl
	}

	// Read phase from a freshly built address list, no schedule memo.
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	readDone := c.mem.ServicePath(now, c.physBuf, t.physOff, false)
	c.st.PhaseReadCycles += readDone - now

	c.readBuf = t.tr.ReadPath(leaf, c.readBuf[:0])
	if t.top != nil {
		c.readBuf = t.top.ReadPath(leaf, c.readBuf)
	}
	fetched := make(map[block.ID]bool, len(c.readBuf))
	for _, e := range c.readBuf {
		fetched[e.Addr] = true
		if e.Addr == target {
			found = true
			continue
		}
		t.fstash.Insert(e)
	}
	if !found {
		foundLevel = -1
	}

	t.mig.reset()
	c.evictBuf = evictOntoPath(t.fstash, t.tr, t.top, t.o.Z, t.minLevel,
		t.o.Levels, leaf, nil, c.evictList, c.evictBuf,
		func(e tree.Entry, level int, _ bool) { t.mig.add(level, fetched[e.Addr]) }, nil)
	t.mig.flush(c.st)

	writeDone := c.mem.PostWritePath(readDone, c.physBuf, t.physOff)
	c.st.PhaseWriteBackCycles += writeDone - readDone

	c.st.Paths.Add(ptype, len(c.physBuf), len(c.physBuf))
	t.paths++
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	return found, foundLevel, done
}
