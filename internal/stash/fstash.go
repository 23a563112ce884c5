// Package stash implements the on-chip block holding structures of the ORAM
// controller: the classic fully-associative F-Stash, the baseline's
// dedicated tree-top cache, and the IR-Stash design (a double-indexed
// set-associative S-Stash plus the TT pointer table) of Section IV-C.
package stash

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/tree"
)

// FStash is the traditional fully-associative stash. Storage is unbounded —
// Path ORAM lets the stash grow transiently and relies on background
// eviction to drain it (Ren et al.) — but Capacity records the provisioned
// size so the controller can detect pressure.
type FStash struct {
	capacity int
	items    []tree.Entry
	index    *AddrTable
	// HighWater tracks the maximum occupancy ever reached.
	HighWater int
}

// NewFStash returns an empty stash provisioned for capacity blocks. The
// index is an open-addressed AddrTable pre-sized for that capacity, so
// steady-state inserts never grow it (Path ORAM lets occupancy exceed
// capacity transiently; the table doubles then, and only then). All
// iteration happens over the items slice, so the index never influences
// ordering — determinism is untouched by the table swap.
func NewFStash(capacity int) *FStash {
	return &FStash{capacity: capacity, index: NewAddrTable(capacity)}
}

// Capacity returns the provisioned size.
func (s *FStash) Capacity() int { return s.capacity }

// Len returns the current occupancy.
func (s *FStash) Len() int { return len(s.items) }

// Overfull reports whether occupancy exceeds the given threshold.
func (s *FStash) Overfull(threshold int) bool { return len(s.items) > threshold }

// Insert adds or updates a block. Duplicate inserts update the leaf in
// place (the block was remapped while stashed).
func (s *FStash) Insert(e tree.Entry) {
	if i, ok := s.index.GetOrPut(e.Addr, uint32(len(s.items))); ok {
		s.items[i] = e
		return
	}
	s.items = append(s.items, e)
	if len(s.items) > s.HighWater {
		s.HighWater = len(s.items)
	}
}

// Lookup returns the leaf of addr if stashed.
func (s *FStash) Lookup(addr block.ID) (block.Leaf, bool) {
	if i, ok := s.index.Get(addr); ok {
		return s.items[i].Leaf, true
	}
	return block.NoLeaf, false
}

// Remove deletes addr, reporting whether it was present. Removal is O(1)
// via swap-with-last, keeping iteration deterministic for a given op
// sequence.
func (s *FStash) Remove(addr block.ID) bool {
	i, ok := s.index.Get(addr)
	if !ok {
		return false
	}
	s.removeAt(int(i))
	return true
}

// removeAt deletes the entry in storage slot i by swap-with-last. Callers
// that already hold the slot (the scan loops below) use it directly instead
// of paying a second index lookup through Remove.
func (s *FStash) removeAt(i int) {
	addr := s.items[i].Addr
	last := len(s.items) - 1
	if i != last {
		s.items[i] = s.items[last]
		s.index.Put(s.items[i].Addr, uint32(i))
	}
	s.items = s.items[:last]
	s.index.Delete(addr)
}

// SetLeaf updates the leaf of a stashed block (remap while stashed); it
// reports whether the block was found.
func (s *FStash) SetLeaf(addr block.ID, leaf block.Leaf) bool {
	if i, ok := s.index.Get(addr); ok {
		s.items[i].Leaf = leaf
		return true
	}
	return false
}

// Each calls fn for every stashed entry in storage order. fn must not
// mutate the stash.
func (s *FStash) Each(fn func(tree.Entry)) {
	for _, e := range s.items {
		fn(e)
	}
}

// EachUntil calls fn for stashed entries in storage order until fn returns
// false. It lets scans that only need a prefix (invariant checks hunting the
// first violation) stop early instead of visiting every entry. fn must not
// mutate the stash.
func (s *FStash) EachUntil(fn func(tree.Entry) bool) {
	for _, e := range s.items {
		if !fn(e) {
			return
		}
	}
}

// TakeForBucket removes and returns up to max blocks whose leaves allow
// placement in the bucket that the path of leaf crosses at level — the
// per-level write-phase selection scan (retained for the core tests'
// reference eviction; the controller hot path uses DrainForPath). accept
// lets the caller veto candidates (the IR-Stash set-conflict rule); pass
// nil to accept all.
// Selected entries are appended to dst (may be nil) and returned.
func (s *FStash) TakeForBucket(leaf block.Leaf, level, levels, max int,
	accept func(tree.Entry) bool, dst []tree.Entry) []tree.Entry {
	out := dst
	if max <= 0 {
		return out
	}
	taken := 0
	for i := 0; i < len(s.items) && taken < max; {
		e := s.items[i]
		if tree.SameSubtree(leaf, e.Leaf, level, levels) && (accept == nil || accept(e)) {
			out = append(out, e)
			taken++
			s.removeAt(i) // swaps the last entry into slot i; do not advance
			continue
		}
		i++
	}
	return out
}

// DrainForPath is the single-pass half of the deepest-first eviction
// (Stefanov et al.): it drains the whole stash plus the caller's
// just-gathered extra entries into perLevel, appending each entry to
// perLevel[d], where d is its deepest placeable level on the path of leaf
// (tree.DeepestLevel). The caller then fills buckets deepest-first, letting
// unplaced entries spill toward the root — O(stash + path) in total, versus
// the O(levels × stash) of running TakeForBucket once per level.
//
// Entries are visited in exactly the order a removal scan over the stash
// would visit them had extra first been Inserted — storage slot 0, then
// the combined tail in reverse (the swap-with-last dynamics of a scan that
// never advances past slot 0) — without paying the per-entry index
// maintenance of Insert followed by removeAt. That order keeps repeated
// runs byte-identical; the scan itself (TakeForPath) survives in
// takeforpath_test.go as the oracle TestDrainForPathMatchesTakeForPath
// compares against. extra entries must not already be stashed (the
// controller's a-block-lives-in-exactly-one-place invariant). HighWater
// advances as if the extra entries had been inserted first. perLevel must
// have at least levels slices; slices are appended to, so the caller resets
// and reuses them across paths to stay allocation-free.
func (s *FStash) DrainForPath(leaf block.Leaf, levels int, perLevel [][]tree.Entry, extra []tree.Entry) {
	n := len(s.items)
	if hw := n + len(extra); hw > s.HighWater {
		s.HighWater = hw
	}
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
		s.index.Delete(e.Addr)
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

func (s *FStash) String() string {
	return fmt.Sprintf("FStash{%d/%d}", len(s.items), s.capacity)
}
