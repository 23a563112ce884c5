package core

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/cache"
	"iroram/internal/tree"
)

// CheckInvariants walks the whole system and verifies single residency,
// placement and capacity invariants; tests and the benchmark call it after
// workloads. It returns the first violation found.
//
// Every block the controller holds is marked once in a bitset over the
// unified block space: the F-Stash, every tree bucket and the top store of
// the main tree and of ρ's small tree, and the PLB. A block marked twice is
// an error. So is a block never marked, unless the scheme holds it out of
// the ORAM (in the LLC under LLC-D, or pending a ρ demotion) with its
// PosMap entry unmapped. Each tree and top-store block must sit in a bucket
// on its leaf's path, each on-chip block (F-Stash, top store) must carry
// its current leaf (the PosMap's main-tree leaf, or in the small tree its
// tagged small-tree leaf), each structure must hold as many blocks as it
// counts, and each F-Stash's membership bitmap must mark exactly its
// stashed blocks.
func (c *Controller) CheckInvariants() error {
	ck := residency{seen: make([]uint64, (c.pm.Total()+63)/64), total: c.pm.Total()}
	ck.pathTree(&c.pathTree, "main", c.pm.Leaf)
	if c.rho != nil {
		ck.pathTree(&c.rho.pathTree, "small", func(id block.ID) block.Leaf {
			leaf, _ := c.pm.Small(id)
			return leaf
		})
	}
	c.plb.EachValid(func(l cache.Line) { ck.mark(block.ID(l.Addr), "the PLB") })
	if ck.err != nil {
		return ck.err
	}
	for id := block.ID(0); uint64(id) < ck.total; id++ {
		if ck.seen[id/64]&(1<<(id%64)) != 0 || !c.pm.Leaf(id).Valid() {
			continue
		}
		if leaf, ok := c.pm.Small(id); ok {
			return fmt.Errorf("core: block %v is mapped to small-tree leaf %d but held nowhere", id, leaf)
		}
		return fmt.Errorf("core: block %v is mapped to leaf %d but held nowhere", id, c.pm.Leaf(id))
	}
	return nil
}

// residency is CheckInvariants' state: one bit per block of the unified
// space, set when the block is found, and the first violation.
type residency struct {
	seen  []uint64
	total uint64
	err   error
}

// failf records a violation unless an earlier one is already recorded.
func (r *residency) failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("core: "+format, args...)
	}
}

// mark records that where holds block id.
func (r *residency) mark(id block.ID, where string) {
	if uint64(id) >= r.total {
		r.failf("%s holds block %v outside the unified space of %d blocks", where, id, r.total)
		return
	}
	w, bit := id/64, uint64(1)<<(id%64)
	if r.seen[w]&bit != 0 {
		r.failf("block %v is held twice (again in %s)", id, where)
		return
	}
	r.seen[w] |= bit
}

// pathTree marks every block of t's F-Stash, tree and top store. It checks
// the leaf of each on-chip block against leafOf and the bucket of each tree
// and top-store block against its leaf's path, each walk against the
// structure's count, and the F-Stash's membership bitmap against its
// items. Tree blocks are not looked up in leafOf: in bucket order those
// lookups miss the cache and would cost more than the rest of the check on
// Scaled.
func (r *residency) pathTree(t *pathTree, name string, leafOf func(block.ID) block.Leaf) {
	where := [...]string{name + " F-Stash", name + " tree", name + " top store"}
	onChip := func(e tree.Entry, where string) {
		r.mark(e.Addr, where)
		if uint64(e.Addr) < r.total && e.Leaf != leafOf(e.Addr) {
			r.failf("%s holds block %v under leaf %d, but its leaf is %d", where, e.Addr, e.Leaf, leafOf(e.Addr))
		}
	}
	t.fstash.Each(func(e tree.Entry) { onChip(e, where[0]) })
	if err := t.fstash.CheckMembership(); err != nil {
		r.failf("%s: %v", where[0], err)
	}
	var n uint64
	onPath := func(e tree.Entry, level int, bucket uint64, where string) {
		if t.tr.BucketIndex(level, e.Leaf) != bucket {
			r.failf("%s holds block %v (leaf %d) in bucket %d of level %d, off its path",
				where, e.Addr, e.Leaf, bucket, level)
		}
		n++
	}
	t.tr.Each(func(e tree.Entry, level int, bucket uint64) {
		r.mark(e.Addr, where[1])
		onPath(e, level, bucket, where[1])
	})
	if n != t.tr.Occupied() {
		r.failf("%s holds %d blocks but counts %d", where[1], n, t.tr.Occupied())
	}
	if t.top != nil {
		n = 0
		t.top.Each(func(e tree.Entry, level int, bucket uint64) {
			onChip(e, where[2])
			onPath(e, level, bucket, where[2])
		})
		if n != uint64(t.top.Len()) {
			r.failf("%s holds %d blocks but counts %d", where[2], n, t.top.Len())
		}
	}
}
