package core

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/posmap"
	"iroram/internal/tree"
)

// Job is one LLC-side request being serviced: a demand read miss, or a
// write-back (dirty eviction under the normal policy; any eviction under
// LLC-D, where clean blocks must also rejoin the tree).
type Job struct {
	Addr  block.ID
	Write bool
}

// ServeOnChip performs every protocol step the job can take without a path
// access: F-Stash and S-Stash hits, PLB-resident PosMap resolution followed
// by a tree-top hit (the baseline's dedicated-cache hit), and LLC-D
// reinsertions whose PosMap1 block is resident. served=false means the
// job's next step requires a path access (see PathStep).
func (c *Controller) ServeOnChip(now uint64, j Job) (served bool, done uint64) {
	a := j.Addr
	if c.pm.Kind(a) != posmap.Data {
		panic(fmt.Sprintf("core: LLC request for non-data block %v", a))
	}
	done = now + c.o.OnChipLatency

	// 1. F-Stash: both policies serve and keep the block stashed; a write
	// updates content in place.
	if _, ok := c.fstash.Lookup(a); ok {
		c.st.StashHits++
		c.st.ServedRequests++
		return true, done
	}
	// ρ: blocks resident in the small tree's stash are on-chip too.
	if c.rho != nil {
		if _, ok := c.rho.fstash.Lookup(a); ok {
			c.st.StashHits++
			c.st.ServedRequests++
			return true, done
		}
	}
	// 2. IR-Stash address index: a hit costs no PosMap access, no path
	// access, no remap (Section IV-C).
	if c.topIdx != nil {
		if _, ok := c.topIdx.LookupByAddr(a); ok {
			c.st.SStashHits++
			c.st.ServedRequests++
			return true, done
		}
	}
	// 3. ρ: the small tree's position metadata is small enough to live
	// on-chip (the point of a shallower tree), so membership is known
	// before any PosMap work; residents need only a small-tree path.
	if c.inSmallTree(a) {
		return false, 0
	}
	// 4. PosMap resolution, on-chip part only.
	pm1 := c.pm.Pos1For(a)
	if !c.posResident(pm1, true) {
		return false, 0 // needs PTp path(s)
	}
	leaf := c.pm.Leaf(a)
	if !leaf.Valid() {
		// The block is out of the tree: under LLC-D (or ρ demotion) it is
		// being written back. Reinsert: remap, stash, dirty the PosMap1
		// entry — all on-chip.
		if !j.Write {
			panic(fmt.Sprintf("core: read for unmapped block %v", a))
		}
		c.reinsert(a, pm1)
		c.st.ServedRequests++
		return true, done
	}
	// 5. Tree-top hit (baseline dedicated cache): now that the leaf is
	// known, an on-chip hit is served with no path access and no remap.
	if c.top != nil {
		if lvl, ok := c.top.Find(a, leaf); ok {
			c.st.TopHits++
			c.st.HitLevels.Add(lvl)
			c.st.ServedRequests++
			return true, done
		}
	}
	return false, 0
}

// reinsert returns an out-of-tree block to the stash under a fresh leaf and
// dirties its PosMap1 entry (which the caller has ensured is resident).
func (c *Controller) reinsert(a block.ID, pm1 block.ID) {
	newLeaf := c.remap(a)
	c.fstash.Insert(tree.Entry{Addr: a, Leaf: newLeaf})
	c.plb.MarkDirty(uint64(pm1))
}

// PathStep performs exactly one path access toward completing the job —
// PTp(Pos2), then PTp(Pos1), then the PT_d data path — and reports whether
// the job finished. The issuer calls it once per pacing slot; between
// steps, ServeOnChip is retried because a fetched PosMap block may reveal
// a tree-top hit.
func (c *Controller) PathStep(now uint64, j Job) (completed bool, done uint64) {
	a := j.Addr
	// ρ small-tree data access: membership is on-chip metadata, no PosMap
	// work needed (member blocks carry no main-tree leaf).
	if c.inSmallTree(a) {
		return true, c.rhoDataAccess(now, a, j.Write)
	}
	pm1 := c.pm.Pos1For(a)
	if !c.posResident(pm1, false) {
		pm2, onChip := c.pm.Parent(pm1)
		if !onChip && !c.posResident(pm2, false) {
			done = c.fetchPosBlock(now, pm2, block.PathPos2, true)
			return false, done
		}
		done = c.fetchPosBlock(now, pm1, block.PathPos1, true)
		return false, done
	}
	c.plb.Access(uint64(pm1), false) // recency for the entry we will read
	leaf := c.pm.Leaf(a)
	if !leaf.Valid() {
		panic(fmt.Sprintf("core: PathStep for unmapped block %v (ServeOnChip should have handled it)", a))
	}
	// Main-tree data access. The access itself reports the level the block
	// was read from (discovered during the gather walk — no separate
	// tree.Find walk); top-segment finds report -1, matching tree.Find's
	// memory-levels-only histogram.
	found, lvl, done := c.treeAccess(now, leaf, a, block.PathData)
	if !found {
		panic(fmt.Sprintf("core: block %v not on its path %d (tree corrupted)", a, leaf))
	}
	if lvl >= 0 {
		c.st.HitLevels.Add(lvl)
	}
	if c.cfg.Scheme.DelayedRemap && !j.Write {
		// LLC-D: discard the mapping; the block now lives only in the LLC
		// and rejoins the tree on eviction. Write-backs (the block was just
		// evicted from the LLC) reinsert like the normal policy below.
		c.pm.Unmap(a)
		c.plb.MarkDirty(uint64(pm1))
	} else if c.rho != nil {
		c.rhoInstall(a)
		c.plb.MarkDirty(uint64(pm1))
	} else {
		newLeaf := c.remap(a)
		c.fstash.Insert(tree.Entry{Addr: a, Leaf: newLeaf})
		c.plb.MarkDirty(uint64(pm1))
	}
	c.st.ServedRequests++
	return true, done
}

// posResident reports whether the PosMap block u is reachable without a
// path access — i.e. whether it is PLB-resident. The paper's baseline is
// explicit that "a PosMap access, if missed in PLB, results in a full path
// access": PLB victims written back into the tree (even ones physically
// sitting in the on-chip tree-top segment) are re-fetched with a path.
// countStats toggles PLB hit/miss accounting so speculative checks (IR-DWB
// stage sizing) stay silent.
func (c *Controller) posResident(u block.ID, countStats bool) bool {
	if c.plb.Contains(uint64(u)) {
		if countStats {
			c.st.PLBHits++
			c.plb.Access(uint64(u), false)
		}
		return true
	}
	if countStats {
		c.st.PLBMisses++
	}
	return false
}

// fetchPosBlock fetches PosMap block u through a full path access, remaps
// it, and installs it in the PLB. A PLB victim is parked in the stash under
// its current (still-secret) leaf; its own parent entry already records that
// leaf, so no extra PosMap update is needed.
func (c *Controller) fetchPosBlock(now uint64, u block.ID, ptype block.PathType,
	countPosPath bool) uint64 {
	leaf := c.pm.Leaf(u)
	// The block may still be parked on-chip (a PLB victim travelling
	// through the stash or the tree top back into memory); the full path
	// access is issued regardless, and the block is extracted from
	// wherever it resides.
	parked := c.fstash.Remove(u)
	if !parked && c.top != nil {
		parked = c.top.Remove(u, leaf)
	}
	found, _, done := c.treeAccess(now, leaf, u, ptype)
	if !found && !parked {
		panic(fmt.Sprintf("core: PosMap block %v not on its path %d", u, leaf))
	}
	c.remap(u)
	if victim := c.plb.Insert(uint64(u), true); victim.Valid {
		v := block.ID(victim.Addr)
		c.fstash.Insert(tree.Entry{Addr: v, Leaf: c.pm.Leaf(v)})
	}
	if countPosPath {
		c.st.PosMapPaths++
	}
	return done
}

// dwbStage computes the Stage register value for an early write-back of
// data block a: 1 if its PosMap1 block is resident, 2 if only PosMap2 is,
// 3 if neither (Section IV-D).
func (c *Controller) dwbStage(a block.ID) int {
	pm1 := c.pm.Pos1For(a)
	if c.posResident(pm1, false) {
		return 1
	}
	pm2, onChip := c.pm.Parent(pm1)
	if onChip || c.posResident(pm2, false) {
		return 2
	}
	return 3
}

// dwbStep performs the path access for one IR-DWB stage and returns the new
// stage value. Stage transitions: 3 -> fetch PosMap2; 2 -> fetch PosMap1;
// 1 -> write the data block (full path access with remap) and 0 means the
// LLC line can be marked clean. usedPath is false when the stage completed
// on-chip (e.g. the block was stashed), leaving the pacing slot free for a
// pure dummy. All paths are accounted as PathDWB: outside the TCB they are
// indistinguishable from the dummies they replace.
func (c *Controller) dwbStep(now uint64, a block.ID, stage int) (newStage int, done uint64, usedPath bool) {
	switch stage {
	case 3:
		pm2, onChip := c.pm.Parent(c.pm.Pos1For(a))
		// Other work since the Stage register was set may have brought the
		// PosMap block on-chip already; the stage then completes for free.
		if onChip || c.posResident(pm2, false) {
			return 2, now, false
		}
		done = c.fetchPosBlock(now, pm2, block.PathDWB, false)
		return 2, done, true
	case 2:
		pm1 := c.pm.Pos1For(a)
		if c.posResident(pm1, false) {
			return 1, now, false
		}
		done = c.fetchPosBlock(now, pm1, block.PathDWB, false)
		return 1, done, true
	case 1:
		leaf := c.pm.Leaf(a)
		if !leaf.Valid() {
			// Held out of the tree (should not happen: IR-DWB is not
			// combined with LLC-D); treat as an on-chip reinsert.
			c.reinsert(a, c.pm.Pos1For(a))
			return 0, now, false
		}
		if _, ok := c.fstash.Lookup(a); ok {
			return 0, now, false // content updated in the stash
		}
		if c.top != nil {
			if _, ok := c.top.Find(a, leaf); ok {
				return 0, now, false // tree-top resident: on-chip update
			}
		}
		found, _, done := c.treeAccess(now, leaf, a, block.PathDWB)
		if !found {
			panic(fmt.Sprintf("core: DWB target %v not on its path", a))
		}
		newLeaf := c.remap(a)
		c.fstash.Insert(tree.Entry{Addr: a, Leaf: newLeaf})
		c.plb.MarkDirty(uint64(c.pm.Pos1For(a)))
		return 0, done, true
	default:
		panic(fmt.Sprintf("core: invalid DWB stage %d", stage))
	}
}
