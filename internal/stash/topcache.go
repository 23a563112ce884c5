package stash

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/tree"
)

// TopStore is the on-chip home of the top tree levels. Both the baseline's
// dedicated cache and IR-Stash implement it; only IR-Stash additionally
// offers the block-address index (AddrIndex) that lets the LLC discover
// tree-top hits without a PosMap lookup.
type TopStore interface {
	// ReadPathEach removes every real block in the top buckets on the path
	// of leaf (the on-chip segment of a path read) and hands each to visit
	// with its level, root first. visit must not touch the store.
	ReadPathEach(leaf block.Leaf, visit func(tree.Entry, int))
	// Fill places e into the bucket the path of leaf crosses at level; it
	// returns false when the design cannot accept the block (bucket full,
	// or an S-Stash set conflict) and the caller must keep it stashed.
	Fill(level int, leaf block.Leaf, e tree.Entry) bool
	// Find reports the level at which addr sits on the path of leaf.
	Find(addr block.ID, leaf block.Leaf) (level int, ok bool)
	// Remove deletes addr from the path of leaf.
	Remove(addr block.ID, leaf block.Leaf) bool
	// Each hands every held block to visit with its level and its bucket's
	// index within the level, without modifying the store.
	Each(visit func(e tree.Entry, level int, bucket uint64))
	// OccupiedAt returns the number of real blocks at one top level.
	OccupiedAt(level int) uint64
	// CapacityAt returns the allocated slots at one top level.
	CapacityAt(level int) uint64
	// Len returns the total number of blocks held.
	Len() int
}

// AddrIndex is the extra capability of IR-Stash: a block-address lookup that
// serves LLC requests directly from the tree top — no PosMap access, no
// path access, no remap (Section IV-C).
type AddrIndex interface {
	// LookupByAddr reports whether addr is held, without PosMap knowledge.
	LookupByAddr(addr block.ID) (block.Leaf, bool)
}

// TopCache is the baseline's dedicated tree-top cache: buckets indexed by
// tree position only. The LLC cannot search it by address, so a request
// must resolve its PosMap entry before a tree-top hit can be discovered —
// the PosMap waste IR-Stash eliminates.
//
// Storage is parallel slotAddr/slotLeaf arrays. Each heap-indexed node
// (node of level l, index i = 2^l + i) owns the fixed slot range
// [nodeLo[n], nodeLo[n]+z[l]); its live entries are the dense prefix of
// length cnt[n], appended to by Fill and compacted by Remove's
// swap-with-last — the exact array dynamics of the historical per-node
// slices, so ReadPathEach emission order is unchanged. Find and Remove scan
// the live prefixes of the path's at most topLevels buckets.
type TopCache struct {
	topLevels int
	levels    int
	z         []int
	occupied  []uint64

	slotAddr []uint32
	slotLeaf []uint32
	nodeLo   []uint32 // heap node -> first slot of its range
	cnt      []uint16 // heap node -> live-prefix length
}

// NewTopCache allocates an empty cache for levels [0, topLevels) of a tree
// with levels levels and the given per-level bucket sizes.
func NewTopCache(levels, topLevels int, z []int) *TopCache {
	if topLevels <= 0 || topLevels >= levels {
		panic(fmt.Sprintf("stash: topLevels %d out of (0,%d)", topLevels, levels))
	}
	t := &TopCache{
		topLevels: topLevels,
		levels:    levels,
		z:         append([]int(nil), z...),
		occupied:  make([]uint64, topLevels),
		nodeLo:    make([]uint32, 1<<uint(topLevels)),
		cnt:       make([]uint16, 1<<uint(topLevels)),
	}
	var slots uint32
	for l := 0; l < topLevels; l++ {
		for i := 0; i < 1<<uint(l); i++ {
			n := (1 << uint(l)) + i
			t.nodeLo[n] = slots
			slots += uint32(z[l])
		}
	}
	t.slotAddr = make([]uint32, slots)
	t.slotLeaf = make([]uint32, slots)
	return t
}

func (t *TopCache) node(level int, leaf block.Leaf) int {
	idx := uint64(leaf) >> (uint(t.levels-1) - uint(level))
	return (1 << uint(level)) + int(idx)
}

// ReadPathEach implements TopStore.
func (t *TopCache) ReadPathEach(leaf block.Leaf, visit func(tree.Entry, int)) {
	for l := 0; l < t.topLevels; l++ {
		n := t.node(l, leaf)
		lo, c := t.nodeLo[n], uint32(t.cnt[n])
		t.occupied[l] -= uint64(c)
		t.cnt[n] = 0
		for s := lo; s < lo+c; s++ {
			visit(tree.Entry{Addr: block.ID(t.slotAddr[s]), Leaf: block.Leaf(t.slotLeaf[s])}, l)
		}
	}
}

// Fill implements TopStore. The dedicated cache owns its buckets outright,
// so it only refuses when the bucket is at capacity.
func (t *TopCache) Fill(level int, leaf block.Leaf, e tree.Entry) bool {
	n := t.node(level, leaf)
	if int(t.cnt[n]) >= t.z[level] {
		return false
	}
	if !tree.SameSubtree(leaf, e.Leaf, level, t.levels) {
		panic(fmt.Sprintf("stash: block %v (leaf %d) misplaced at top level %d of path %d",
			e.Addr, e.Leaf, level, leaf))
	}
	s := t.nodeLo[n] + uint32(t.cnt[n])
	t.slotAddr[s] = uint32(e.Addr)
	t.slotLeaf[s] = uint32(e.Leaf)
	t.cnt[n]++
	t.occupied[level]++
	return true
}

// locate returns the level, heap node and slot that hold addr on the path
// of leaf, scanning each level's live prefix from the root down.
func (t *TopCache) locate(addr block.ID, leaf block.Leaf) (level, n int, s uint32, ok bool) {
	for l := 0; l < t.topLevels; l++ {
		n := t.node(l, leaf)
		for s := t.nodeLo[n]; s < t.nodeLo[n]+uint32(t.cnt[n]); s++ {
			if block.ID(t.slotAddr[s]) == addr {
				return l, n, s, true
			}
		}
	}
	return 0, 0, 0, false
}

// Find implements TopStore.
func (t *TopCache) Find(addr block.ID, leaf block.Leaf) (int, bool) {
	l, _, _, ok := t.locate(addr, leaf)
	return l, ok
}

// Remove implements TopStore: swap-with-last compaction of the owning
// node's live prefix (the historical slice dynamics).
func (t *TopCache) Remove(addr block.ID, leaf block.Leaf) bool {
	l, n, s, ok := t.locate(addr, leaf)
	if !ok {
		return false
	}
	last := t.nodeLo[n] + uint32(t.cnt[n]) - 1
	t.slotAddr[s] = t.slotAddr[last]
	t.slotLeaf[s] = t.slotLeaf[last]
	t.cnt[n]--
	t.occupied[l]--
	return true
}

// Each implements TopStore, node by node in heap order.
func (t *TopCache) Each(visit func(e tree.Entry, level int, bucket uint64)) {
	for l := 0; l < t.topLevels; l++ {
		for i := 0; i < 1<<uint(l); i++ {
			n := (1 << uint(l)) + i
			for s := t.nodeLo[n]; s < t.nodeLo[n]+uint32(t.cnt[n]); s++ {
				visit(tree.Entry{Addr: block.ID(t.slotAddr[s]), Leaf: block.Leaf(t.slotLeaf[s])}, l, uint64(i))
			}
		}
	}
}

// OccupiedAt implements TopStore.
func (t *TopCache) OccupiedAt(level int) uint64 { return t.occupied[level] }

// CapacityAt implements TopStore.
func (t *TopCache) CapacityAt(level int) uint64 {
	return (uint64(1) << uint(level)) * uint64(t.z[level])
}

// Len implements TopStore.
func (t *TopCache) Len() int {
	n := 0
	for _, o := range t.occupied {
		n += int(o)
	}
	return n
}
