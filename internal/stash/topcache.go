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
	// ReadPath removes every real block in the top buckets on the path of
	// leaf (the on-chip segment of a path read), appending to dst — which
	// may be nil, or a buffer reused across paths to avoid allocation.
	ReadPath(leaf block.Leaf, dst []tree.Entry) []tree.Entry
	// ReadPathEach is ReadPath without the intermediate buffer: each
	// removed block is handed to visit with its level, in exactly
	// ReadPath's emission order. visit must not touch the store.
	ReadPathEach(leaf block.Leaf, visit func(tree.Entry, int))
	// Fill places e into the bucket the path of leaf crosses at level; it
	// returns false when the design cannot accept the block (bucket full,
	// or an S-Stash set conflict) and the caller must keep it stashed.
	Fill(level int, leaf block.Leaf, e tree.Entry) bool
	// Find reports the level at which addr sits on the path of leaf.
	Find(addr block.ID, leaf block.Leaf) (level int, ok bool)
	// Remove deletes addr from the path of leaf.
	Remove(addr block.ID, leaf block.Leaf) bool
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
// Storage is the same SoA layout as tree.Tree (parallel slotAddr/slotLeaf
// arrays), so the controller's fused walk runs the identical inner loop
// over the on-chip and memory-resident segments. Each heap-indexed node
// (node of level l, index i = 2^l + i) owns the fixed slot range
// [nodeLo[n], nodeLo[n]+z[l]); its live entries are the dense prefix of
// length cnt[n], appended to by Fill and compacted by Remove's
// swap-with-last — the exact array dynamics of the historical per-node
// slices, so ReadPath emission order is unchanged.
//
// An AddrTable maps addresses to their global slot, making Find and Remove
// O(1) instead of a scan over every node on the path. The index is lazy:
// Fill and the Remove swap keep every RESIDENT block's mapping current,
// but eviction walks and removals leave the departing key's entry behind
// as garbage rather than paying a backward-shift delete per block on the
// hot path. Lookups verify a mapping against the store (the slot's live
// prefix and its recorded address) before trusting it, which is sound
// because a resident block always has an up-to-date mapping — a stale
// entry can only belong to an absent block or point at a reused slot, and
// both fail verification. When garbage would force the table to grow, Fill
// sweeps the dead entries out in place instead, so the index never
// allocates after construction.
type TopCache struct {
	topLevels int
	levels    int
	z         []int
	occupied  []uint64

	slotAddr []uint32
	slotLeaf []uint32
	nodeLo   []uint32   // heap node -> first slot of its range
	cnt      []uint16   // heap node -> live-prefix length
	slotNode []uint32   // slot -> owning heap node (static)
	slotLvl  []uint8    // slot -> level (static)
	index    *AddrTable // addr -> global slot; lazy, verify before trusting
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
	t.slotNode = make([]uint32, slots)
	t.slotLvl = make([]uint8, slots)
	for l := 0; l < topLevels; l++ {
		for i := 0; i < 1<<uint(l); i++ {
			n := (1 << uint(l)) + i
			lo := t.nodeLo[n]
			for s := lo; s < lo+uint32(z[l]); s++ {
				t.slotNode[s] = uint32(n)
				t.slotLvl[s] = uint8(l)
			}
		}
	}
	// Doubly oversized (4x the live-entry bound) so lazy garbage forces an
	// in-place sweep only once per couple hundred fills. Not larger: the
	// table competes with the slot arrays for L1, and a bigger, colder
	// index costs more per Put than the rarer sweeps save.
	t.index = NewAddrTable(2 * int(slots))
	return t
}

// liveAt reports whether the index mapping id -> s is current: s must sit
// in its node's live prefix and still hold id.
func (t *TopCache) liveAt(id block.ID, s uint32) bool {
	n := t.slotNode[s]
	return s-t.nodeLo[n] < uint32(t.cnt[n]) && t.slotAddr[s] == uint32(id)
}

func (t *TopCache) node(level int, leaf block.Leaf) int {
	idx := uint64(leaf) >> (uint(t.levels-1) - uint(level))
	return (1 << uint(level)) + int(idx)
}

// ReadPath implements TopStore.
func (t *TopCache) ReadPath(leaf block.Leaf, dst []tree.Entry) []tree.Entry {
	out := dst
	for l := 0; l < t.topLevels; l++ {
		n := t.node(l, leaf)
		lo, c := t.nodeLo[n], uint32(t.cnt[n])
		t.occupied[l] -= uint64(c)
		t.cnt[n] = 0
		for s := lo; s < lo+c; s++ {
			out = append(out, tree.Entry{Addr: block.ID(t.slotAddr[s]), Leaf: block.Leaf(t.slotLeaf[s])})
		}
	}
	return out
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
	if t.index.Full() {
		t.index.Sweep(t.liveAt)
	}
	t.index.Put(e.Addr, s)
	return true
}

// Find implements TopStore: one verified index probe instead of a scan
// over every node on the path. The node check rejects blocks resident in
// the cache but not on this leaf's path.
func (t *TopCache) Find(addr block.ID, leaf block.Leaf) (int, bool) {
	s, ok := t.index.Get(addr)
	if !ok || !t.liveAt(addr, s) {
		return 0, false
	}
	l := int(t.slotLvl[s])
	if int(t.slotNode[s]) != t.node(l, leaf) {
		return 0, false
	}
	return l, true
}

// Remove implements TopStore: verified index lookup, then swap-with-last
// compaction of the owning node's live prefix (the historical slice
// dynamics). The removed key's index entry is left to lazy reclamation.
func (t *TopCache) Remove(addr block.ID, leaf block.Leaf) bool {
	s, ok := t.index.Get(addr)
	if !ok || !t.liveAt(addr, s) {
		return false
	}
	l := int(t.slotLvl[s])
	n := int(t.slotNode[s])
	if n != t.node(l, leaf) {
		return false
	}
	last := t.nodeLo[n] + uint32(t.cnt[n]) - 1
	if s != last {
		moved := t.slotAddr[last]
		t.slotAddr[s] = moved
		t.slotLeaf[s] = t.slotLeaf[last]
		// moved is resident, so its key is present: this Put updates in
		// place and cannot grow the table.
		t.index.Put(block.ID(moved), s)
	}
	t.cnt[n]--
	t.occupied[l]--
	return true
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
