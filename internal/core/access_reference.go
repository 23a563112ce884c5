package core

import (
	"iroram/internal/block"
	"iroram/internal/tree"
)

// This file retains the pre-fusion, multi-walk shape of the path access as
// a reference implementation: the production pipeline (pathAccess) does
// the read-gather, stash insert, target extraction and writeback posting
// in a single walk over the path and charges both DRAM phases from one run
// list; the reference builds the path's run list afresh for each phase
// (physRuns, then ServiceRuns or PostWriteRuns), resolves the target's
// level with a separate tree.Find walk, stages the read phase through
// readBuf before scanning it, and splits Fig 5's migration tally from a
// membership map instead of tree.GatherFlag. DRAM timing itself has
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

	// Read phase from a freshly built address list.
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	readDone := c.mem.ServiceRuns(now, c.physRuns(t.physOff), false)
	c.st.PhaseReadCycles += readDone - now

	c.readBuf = c.readBuf[:0]
	buffer := c.bufferRead
	t.tr.ReadPathEach(leaf, buffer)
	if t.top != nil {
		t.top.ReadPathEach(leaf, buffer)
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

	c.evictBuf = evictOntoPath(t.fstash, t.tr, t.top, t.o.Z, t.minLevel,
		t.o.Levels, leaf, nil, c.evictList, c.evictBuf,
		func(e tree.Entry, level int, _ bool) { t.mig.add(level, fetched[e.Addr]) }, nil)

	writeDone := c.mem.PostWriteRuns(readDone, c.physRuns(t.physOff))
	c.st.PhaseWriteBackCycles += writeDone - readDone

	c.st.Paths.Add(ptype, len(c.physBuf), len(c.physBuf))
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	return found, foundLevel, done
}

// bufferRead appends one block of a path read to readBuf. It is the visit
// function the reference reads a path through.
func (c *Controller) bufferRead(e tree.Entry, _ int) { c.readBuf = append(c.readBuf, e) }
