// Package stash implements the on-chip block holding structures of the ORAM
// controller: the classic fully-associative F-Stash (a dense entry list
// whose membership is one bit per block of the unified space), the
// baseline's dedicated tree-top cache, and the IR-Stash design (a
// double-indexed set-associative S-Stash plus the TT pointer table) of
// Section IV-C.
package stash

import (
	"fmt"
	"math/bits"

	"iroram/internal/block"
	"iroram/internal/tree"
)

// FStash is the traditional fully-associative stash. Storage is unbounded —
// Path ORAM lets the stash grow transiently and relies on background
// eviction to drain it (Ren et al.); the controller detects pressure with
// Overfull against its eviction threshold.
//
// The items slice is the only storage and the only order. Membership is a
// bitmap with one bit per block of the unified space, set exactly while
// the block is stashed: a lookup of an absent block — nearly every lookup
// — reads one bit, and a lookup of a present one scans the items. The
// write phase drains the whole stash into the path and re-inserts what did
// not fit, so each stashed block costs one bit clear and one bit set per
// write phase.
type FStash struct {
	items []tree.Entry
	held  []uint64 // bit a%64 of word a/64 is set while block a is stashed
}

// NewFStash returns an empty stash whose membership bitmap covers block IDs
// [0, blocks). The bitmap is allocated here and never grows; stashing an ID
// outside it panics.
func NewFStash(blocks uint64) *FStash {
	return &FStash{held: make([]uint64, (blocks+63)/64)}
}

// Len returns the current occupancy.
func (s *FStash) Len() int { return len(s.items) }

// Overfull reports whether occupancy exceeds the given threshold.
func (s *FStash) Overfull(threshold int) bool { return len(s.items) > threshold }

// setHeld sets or clears addr's membership bit.
func (s *FStash) setHeld(addr block.ID, on bool) {
	if on {
		s.held[addr/64] |= 1 << (addr % 64)
	} else {
		s.held[addr/64] &^= 1 << (addr % 64)
	}
}

// slot returns addr's storage slot, or -1 when addr is not stashed. Only a
// set membership bit pays the scan over items.
func (s *FStash) slot(addr block.ID) int {
	if s.held[addr/64]&(1<<(addr%64)) == 0 {
		return -1
	}
	for i := range s.items {
		if s.items[i].Addr == addr {
			return i
		}
	}
	return -1
}

// Insert adds or updates a block. Duplicate inserts update the leaf in
// place (the block was remapped while stashed).
func (s *FStash) Insert(e tree.Entry) {
	if i := s.slot(e.Addr); i >= 0 {
		s.items[i] = e
		return
	}
	s.setHeld(e.Addr, true)
	s.items = append(s.items, e)
}

// Lookup returns the leaf of addr if stashed.
func (s *FStash) Lookup(addr block.ID) (block.Leaf, bool) {
	if i := s.slot(addr); i >= 0 {
		return s.items[i].Leaf, true
	}
	return block.NoLeaf, false
}

// Remove deletes addr, reporting whether it was present. Removal is by
// swap-with-last, keeping iteration deterministic for a given op sequence.
func (s *FStash) Remove(addr block.ID) bool {
	i := s.slot(addr)
	if i < 0 {
		return false
	}
	s.setHeld(addr, false)
	last := len(s.items) - 1
	s.items[i] = s.items[last]
	s.items = s.items[:last]
	return true
}

// Each calls fn for every stashed entry in storage order. fn must not
// mutate the stash.
func (s *FStash) Each(fn func(tree.Entry)) {
	for _, e := range s.items {
		fn(e)
	}
}

// CheckMembership verifies the membership bitmap against the items: every
// stashed block's bit is set, and no other bit is. It returns the first
// mismatch found.
func (s *FStash) CheckMembership() error {
	for _, e := range s.items {
		if s.held[e.Addr/64]&(1<<(e.Addr%64)) == 0 {
			return fmt.Errorf("stash: stashed block %v has no membership bit", e.Addr)
		}
	}
	set := 0
	for _, w := range s.held {
		set += bits.OnesCount64(w)
	}
	if set != len(s.items) {
		return fmt.Errorf("stash: %d membership bits set for %d stashed blocks", set, len(s.items))
	}
	return nil
}

// DrainForPath is the single-pass half of the deepest-first eviction
// (Stefanov et al.): it drains the whole stash plus the caller's
// just-gathered extra entries into perLevel, appending each entry to
// perLevel[d], where d is its deepest placeable level on the path of leaf
// (tree.DeepestLevel). The caller then fills buckets deepest-first, letting
// unplaced entries spill toward the root — O(stash + path) in total, versus
// the O(levels × stash) of rescanning the stash once per level (the
// reference eviction in internal/core's eviction_reference_test.go).
//
// Entries are visited in exactly the order a removal scan over the stash
// would visit them had extra first been Inserted — storage slot 0, then
// the combined tail in reverse (the swap-with-last dynamics of a scan that
// never advances past slot 0) — without inserting extra at all. That order
// keeps repeated runs byte-identical; the scan itself (TakeForPath)
// survives in takeforpath_test.go as the oracle
// TestDrainForPathMatchesTakeForPath compares against. extra entries must
// not already be stashed (the controller's a-block-lives-in-exactly-one-
// place invariant); their membership bits are never touched. perLevel must
// have at least levels slices; slices are appended to, so the caller resets
// and reuses them across paths to stay allocation-free.
func (s *FStash) DrainForPath(leaf block.Leaf, levels int, perLevel [][]tree.Entry, extra []tree.Entry) {
	n := len(s.items)
	first := 0
	if n > 0 {
		drainVisit(leaf, levels, perLevel, s.items[0])
	} else if len(extra) > 0 {
		drainVisit(leaf, levels, perLevel, extra[0])
		first = 1
	}
	for i := len(extra) - 1; i >= first; i-- {
		drainVisit(leaf, levels, perLevel, extra[i])
	}
	for i := n - 1; i >= 1; i-- {
		drainVisit(leaf, levels, perLevel, s.items[i])
	}
	for _, e := range s.items {
		s.setHeld(e.Addr, false)
	}
	s.items = s.items[:0]
}

// drainVisit classifies one drained entry into its deepest placeable
// level. The gather walk may have marked extra entries with
// tree.GatherFlag; the flag is masked out of the leaf arithmetic but rides
// along on the appended entry for the write phase to consume.
func drainVisit(leaf block.Leaf, levels int, perLevel [][]tree.Entry, e tree.Entry) {
	d := tree.DeepestLevel(leaf, e.Leaf&^tree.GatherFlag, levels)
	perLevel[d] = append(perLevel[d], e)
}
