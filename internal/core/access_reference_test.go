package core

import (
	"iroram/internal/block"
	"iroram/internal/tree"
)

// pathAccessReference is the pre-fusion, multi-walk shape of pathAccess on
// tree t, kept as the oracle of the per-access differential (diffPair in
// pipeline_test.go). Where pathAccess charges both DRAM phases from
// one run list and finds the target during its one gather walk, the
// reference takes the target off the tree first (tree.Remove, as
// ringAccess does), builds the path's run list afresh for each phase,
// reads the path into a buffer and scans it, and splits Fig 5's migration
// tally through onPlace and a membership map instead of tree.GatherFlag.
// Both must produce identical timing, statistics, stash order and tree
// state for every access on either tree.
func (c *Controller) pathAccessReference(t *pathTree, now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	foundLevel = -1
	if lvl, ok := t.tr.Remove(target, leaf); ok {
		found, foundLevel = true, lvl
	}

	// Read phase from a freshly built address list.
	c.physBuf = t.layout.PathPhys(leaf, c.physBuf[:0])
	readDone := c.mem.ServiceRuns(now, c.physRuns(t.physOff), false)
	c.st.PhaseReadCycles += readDone - now

	var read []tree.Entry
	buffer := func(e tree.Entry, _ int) { read = append(read, e) }
	t.tr.ReadPathEach(leaf, buffer)
	if t.top != nil {
		t.top.ReadPathEach(leaf, buffer)
	}
	fetched := make(map[block.ID]bool, len(read))
	for _, e := range read {
		fetched[e.Addr] = true
		if e.Addr == target {
			found = true // read from the on-chip segment: foundLevel stays -1
			continue
		}
		t.fstash.Insert(e)
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
