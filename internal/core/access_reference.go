package core

import (
	"iroram/internal/block"
	"iroram/internal/stash"
)

// This file retains the pre-fusion, multi-walk shape of the path access as
// a reference implementation: the production pipeline (pathAccess) does
// the read-gather, stash insert, target extraction and writeback posting
// in a single walk over the path serviced from memoized run lists; the
// reference rebuilds the physical address list every time and services it
// through ServicePath/PostWritePath — a fresh run build per phase, so the
// lockstep comparison also pins the dram.PathSched memo — resolves the
// target's level with a separate tree.Find walk, and stages the read phase
// through readBuf before scanning it. DRAM timing itself has one
// implementation (internal/dram's run-length service); its per-address
// oracle lives in that package's oracle_test.go. Both pipelines must
// produce identical timing, statistics, stash order and tree state for
// every access; TestFusedPipelineMatchesReference drives whole workloads
// through each and compares. Controller.refPipeline routes pathAccess here.

// pathAccessReference is the multi-walk main-tree path access.
func (c *Controller) pathAccessReference(now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, foundLevel int, done uint64) {
	foundLevel = -1
	if lvl, ok := c.tr.Find(target, leaf); ok {
		foundLevel = lvl
	}

	// Read phase from a freshly built address list, no schedule memo.
	c.physBuf = c.layout.PathPhys(leaf, c.physBuf[:0])
	readDone := c.mem.ServicePath(now, c.physBuf, 0, false)
	c.st.PhaseReadCycles += readDone - now

	c.fetched.Reset()
	c.readBuf = c.tr.ReadPath(leaf, c.readBuf[:0])
	if c.top != nil {
		c.readBuf = c.top.ReadPath(leaf, c.readBuf)
	}
	for _, e := range c.readBuf {
		c.fetched.Add(e.Addr)
		if e.Addr == target {
			found = true
			continue
		}
		c.fstash.Insert(e)
	}
	if !found {
		foundLevel = -1
	}

	c.evictBuf = evictOntoPath(c.fstash, c.tr, c.top, c.o.Z, c.minLevel,
		c.o.Levels, leaf, nil, c.evictList, c.evictBuf, c.placeMainRef, nil)

	writeDone := c.mem.PostWritePath(readDone, c.physBuf, 0)
	c.st.PhaseWriteBackCycles += writeDone - readDone

	c.st.Paths.Add(ptype, len(c.physBuf), len(c.physBuf))
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	if c.st.RecordLeaves {
		c.st.Leaves = append(c.st.Leaves, leaf)
	}
	return found, foundLevel, done
}

// rhoPathAccessReference is the multi-walk small-tree path access.
func (c *Controller) rhoPathAccessReference(now uint64, leaf block.Leaf, target block.ID,
	ptype block.PathType) (found bool, done uint64) {
	r := c.rho
	c.physBuf = r.layout.PathPhys(leaf, c.physBuf[:0])
	readDone := c.mem.ServicePath(now, c.physBuf, r.physOff, false)
	c.st.PhaseReadCycles += readDone - now

	c.readBuf = r.tr.ReadPath(leaf, c.readBuf[:0])
	var top stash.TopStore // keep a nil *TopCache a nil interface
	if r.top != nil {
		top = r.top
		c.readBuf = r.top.ReadPath(leaf, c.readBuf)
	}
	for _, e := range c.readBuf {
		if e.Addr == target {
			found = true
			continue
		}
		r.fstash.Insert(e)
	}
	c.evictBuf = evictOntoPath(r.fstash, r.tr, top, r.o.Z, r.o.TopLevels,
		r.o.Levels, leaf, nil, c.evictList, c.evictBuf, nil, nil)

	writeDone := c.mem.PostWritePath(readDone, c.physBuf, r.physOff)
	c.st.PhaseWriteBackCycles += writeDone - readDone
	c.st.Paths.Add(ptype, len(c.physBuf), len(c.physBuf))
	done = readDone + c.o.OnChipLatency
	c.st.PathLatency[ptype].Observe(done - now)
	r.SmallPaths++
	return found, done
}
