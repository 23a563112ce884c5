// Package tree implements the ORAM tree: bucket storage with per-level
// bucket sizes (the substrate of IR-Alloc), path indexing, occupancy
// accounting for the utilization studies (Fig 3/4/13), and the subtree
// physical layout of Ren et al. that gives path accesses DRAM row-buffer
// locality.
//
// The tree stores only the memory-resident levels [MinLevel, Levels); the
// on-chip top levels live in internal/stash (dedicated TopCache or S-Stash).
//
// # Occupancy invariant
//
// Alongside the slot arrays the tree keeps one uint64 occupancy word per
// bucket (every supported geometry has Z <= 64): bit b of bucket (level,
// idx)'s word is set exactly when slot levelBase[level]+idx*Z+b holds a
// real block. The word is authoritative — every mutation updates it in
// lockstep with the slot writes, slot contents are meaningful only where
// their bit is set (removal clears the bit without touching the slot
// arrays), and no validity sentinel is ever consulted: per-slot validity
// checks are folded into the occupancy word. Path walks iterate set bits
// (bits.TrailingZeros64) in ascending slot order, fills claim the lowest
// clear bit of ^occ&zmask — both identical in visit/placement order to the
// historical per-slot scans (pinned by the differential tests in
// occupancy_test.go) — and empty buckets skip in O(1) on one word load.
package tree

import (
	"fmt"
	"math/bits"

	"iroram/internal/block"
	"iroram/internal/config"
)

// Entry is a real block held in a bucket slot: its unified address and its
// currently assigned leaf (Path ORAM stores both in the block header).
type Entry struct {
	Addr block.ID
	Leaf block.Leaf
}

// GatherFlag is a transient provenance marker the controller's read walk
// may set on Entry.Leaf while an entry is in flight between the gather and
// the write phase ("this block was fetched by the current path access" —
// the Fig 5 migration split). Real leaves are below 2^31 on every valid
// geometry (config caps Levels at 32), so the top bit of the 32-bit leaf
// is free. The flag exists only inside the eviction drain's scratch: the
// write phase strips it before an entry reaches any storage structure
// (tree, tree-top store, or stash), and classification masks it before
// leaf arithmetic.
const GatherFlag block.Leaf = 1 << 31

// Tree is the bucket storage of the memory-resident levels.
type Tree struct {
	levels    int
	minLevel  int
	z         []int
	leafBits  uint // levels-1, shift for path indexing
	levelBase []uint64
	slotAddr  []uint32
	slotLeaf  []uint32
	occupied  []uint64 // per level, indexed [0, levels); top levels stay 0

	// occ holds one occupancy word per bucket of the memory-resident
	// levels; the word of bucket (level, idx) is occ[occBase[level]+idx].
	// zmask[level] has the low Z[level] bits set, so ^occ&zmask is the
	// bucket's free-slot mask. See the package doc for the invariant.
	occ     []uint64
	occBase []uint64
	zmask   []uint64
}

// New allocates an empty tree holding levels [minLevel, o.Levels). Slots
// store addresses and leaves as uint32, and config.Validate rejects every
// geometry whose unified block space reaches 2^32. New panics if any bucket
// size exceeds the 64 slots an occupancy word can track.
func New(o config.ORAM, minLevel int) *Tree {
	if minLevel < 0 || minLevel >= o.Levels {
		panic(fmt.Sprintf("tree: minLevel %d out of [0,%d)", minLevel, o.Levels))
	}
	t := &Tree{
		levels:    o.Levels,
		minLevel:  minLevel,
		z:         append([]int(nil), o.Z...),
		leafBits:  uint(o.Levels - 1),
		levelBase: make([]uint64, o.Levels+1),
		occupied:  make([]uint64, o.Levels),
		occBase:   make([]uint64, o.Levels),
		zmask:     make([]uint64, o.Levels),
	}
	var slots, buckets uint64
	for l := 0; l < o.Levels; l++ {
		if o.Z[l] > 64 {
			panic(fmt.Sprintf("tree: Z=%d at level %d exceeds the 64-slot occupancy word", o.Z[l], l))
		}
		t.zmask[l] = ^uint64(0) >> (64 - uint(o.Z[l]))
		t.levelBase[l] = slots
		t.occBase[l] = buckets
		if l >= minLevel {
			slots += (uint64(1) << uint(l)) * uint64(o.Z[l])
			buckets += uint64(1) << uint(l)
		}
	}
	t.levelBase[o.Levels] = slots
	t.slotAddr = make([]uint32, slots)
	t.slotLeaf = make([]uint32, slots)
	t.occ = make([]uint64, buckets)
	return t
}

// Levels returns L.
func (t *Tree) Levels() int { return t.levels }

// MinLevel returns the shallowest memory-resident level.
func (t *Tree) MinLevel() int { return t.minLevel }

// Z returns the bucket size of a level.
func (t *Tree) Z(level int) int { return t.z[level] }

// BucketIndex returns the index within level of the bucket that the path of
// leaf crosses at that level.
func (t *Tree) BucketIndex(level int, leaf block.Leaf) uint64 {
	return uint64(leaf) >> (t.leafBits - uint(level))
}

// SameSubtree reports whether the paths of two leaves cross the same bucket
// at level (equivalently: whether a block mapped to b may be placed at that
// level of a's path).
func SameSubtree(a, b block.Leaf, level, levels int) bool {
	shift := uint(levels-1) - uint(level)
	return uint64(a)>>shift == uint64(b)>>shift
}

// DeepestLevel returns the deepest level at which a block mapped to b may be
// placed on the path of a: the level of the two paths' lowest common bucket.
// It is the largest level for which SameSubtree(a, b, level, levels) holds,
// computed in O(1) from the position of the highest differing leaf bit
// (leaf-XOR + leading-zero count) instead of probing levels one by one —
// the primitive behind the single-pass stash eviction.
func DeepestLevel(a, b block.Leaf, levels int) int {
	x := uint64(a) ^ uint64(b)
	// bits.Len64(x) == 64 - bits.LeadingZeros64(x) is the index (1-based) of
	// the highest differing bit; the paths share exactly levels-1-Len64(x)
	// edges below the root, i.e. they diverge at that depth.
	return levels - 1 - (64 - bits.LeadingZeros64(x))
}

// bucketSlots returns the slot range of bucket (level, idx).
func (t *Tree) bucketSlots(level int, idx uint64) (lo, hi uint64) {
	z := uint64(t.z[level])
	lo = t.levelBase[level] + idx*z
	return lo, lo + z
}

// ReadPath removes every real block on the path of leaf (memory-resident
// levels only), leaving those buckets empty — the read phase of a path
// access. The blocks are appended to dst (pass nil, or a reused buffer to
// keep the hot path allocation-free) and returned root-to-leaf.
func (t *Tree) ReadPath(leaf block.Leaf, dst []Entry) []Entry {
	out := dst
	for l := t.minLevel; l < t.levels; l++ {
		idx := t.BucketIndex(l, leaf)
		w := t.occBase[l] + idx
		o := t.occ[w]
		if o == 0 {
			continue
		}
		t.occ[w] = 0
		t.occupied[l] -= uint64(bits.OnesCount64(o))
		lo := t.levelBase[l] + idx*uint64(t.z[l])
		for o != 0 {
			s := lo + uint64(bits.TrailingZeros64(o))
			o &= o - 1
			out = append(out, Entry{
				Addr: block.ID(t.slotAddr[s]),
				Leaf: block.Leaf(t.slotLeaf[s]),
			})
		}
	}
	return out
}

// ReadPathEach is ReadPath without the intermediate buffer: it removes every
// real block on the path of leaf (memory-resident levels only) and hands
// each to visit along with its level, in exactly ReadPath's root-to-leaf
// emission order. It is the read-gather half of the controller's fused
// single-walk pipeline; visit must not touch the tree.
func (t *Tree) ReadPathEach(leaf block.Leaf, visit func(Entry, int)) {
	for l := t.minLevel; l < t.levels; l++ {
		idx := t.BucketIndex(l, leaf)
		w := t.occBase[l] + idx
		o := t.occ[w]
		if o == 0 {
			continue
		}
		t.occ[w] = 0
		t.occupied[l] -= uint64(bits.OnesCount64(o))
		lo := t.levelBase[l] + idx*uint64(t.z[l])
		for o != 0 {
			s := lo + uint64(bits.TrailingZeros64(o))
			o &= o - 1
			visit(Entry{Addr: block.ID(t.slotAddr[s]), Leaf: block.Leaf(t.slotLeaf[s])}, l)
		}
	}
}

// FillBucket writes entries into the bucket the path of leaf crosses at
// level — the write phase for one level — claiming free slots in ascending
// order from the bucket's free mask. It panics if the bucket has fewer free
// slots than entries or if an entry does not belong on this bucket's
// subtree, both of which indicate controller bugs.
func (t *Tree) FillBucket(level int, leaf block.Leaf, entries []Entry) {
	if len(entries) == 0 {
		return
	}
	if len(entries) > t.z[level] {
		panic(fmt.Sprintf("tree: %d entries for Z=%d bucket", len(entries), t.z[level]))
	}
	idx := t.BucketIndex(level, leaf)
	w := t.occBase[level] + idx
	o := t.occ[w]
	lo := t.levelBase[level] + idx*uint64(t.z[level])
	if o == 0 {
		// Just-drained bucket (the write phase's common case): the free
		// mask is the full slot range, so ascending-order claiming is a
		// straight sequential write of slots [0, len(entries)).
		for i, e := range entries {
			if !SameSubtree(leaf, e.Leaf, level, t.levels) {
				panic(fmt.Sprintf("tree: block %v (leaf %d) misplaced at level %d of path %d",
					e.Addr, e.Leaf, level, leaf))
			}
			s := lo + uint64(i)
			t.slotAddr[s] = uint32(e.Addr)
			t.slotLeaf[s] = uint32(e.Leaf)
		}
		t.occ[w] = uint64(1)<<uint(len(entries)) - 1
		t.occupied[level] += uint64(len(entries))
		return
	}
	free := ^o & t.zmask[level]
	for _, e := range entries {
		if !SameSubtree(leaf, e.Leaf, level, t.levels) {
			panic(fmt.Sprintf("tree: block %v (leaf %d) misplaced at level %d of path %d",
				e.Addr, e.Leaf, level, leaf))
		}
		if free == 0 {
			panic(fmt.Sprintf("tree: bucket overflow at level %d", level))
		}
		b := uint64(bits.TrailingZeros64(free))
		free &= free - 1
		o |= uint64(1) << b
		s := lo + b
		t.slotAddr[s] = uint32(e.Addr)
		t.slotLeaf[s] = uint32(e.Leaf)
	}
	t.occ[w] = o
	t.occupied[level] += uint64(len(entries))
}

// Find scans the path of leaf for addr without modifying the tree and
// returns the level holding it.
func (t *Tree) Find(addr block.ID, leaf block.Leaf) (level int, ok bool) {
	for l := t.minLevel; l < t.levels; l++ {
		idx := t.BucketIndex(l, leaf)
		o := t.occ[t.occBase[l]+idx]
		lo := t.levelBase[l] + idx*uint64(t.z[l])
		for o != 0 {
			s := lo + uint64(bits.TrailingZeros64(o))
			o &= o - 1
			if block.ID(t.slotAddr[s]) == addr {
				return l, true
			}
		}
	}
	return 0, false
}

// Remove deletes addr from the path of leaf; it reports whether the block
// was found.
func (t *Tree) Remove(addr block.ID, leaf block.Leaf) bool {
	for l := t.minLevel; l < t.levels; l++ {
		idx := t.BucketIndex(l, leaf)
		w := t.occBase[l] + idx
		o := t.occ[w]
		lo := t.levelBase[l] + idx*uint64(t.z[l])
		for m := o; m != 0; m &= m - 1 {
			b := uint64(bits.TrailingZeros64(m))
			s := lo + b
			if block.ID(t.slotAddr[s]) == addr {
				t.occ[w] = o &^ (uint64(1) << b)
				t.occupied[l]--
				return true
			}
		}
	}
	return false
}

// Place inserts e at the deepest level of its leaf's path with a free slot,
// used for initial placement. It reports the level used; ok is false when
// every memory-resident bucket on the path is full.
func (t *Tree) Place(e Entry) (level int, ok bool) {
	for l := t.levels - 1; l >= t.minLevel; l-- {
		idx := t.BucketIndex(l, e.Leaf)
		w := t.occBase[l] + idx
		free := ^t.occ[w] & t.zmask[l]
		if free == 0 {
			continue
		}
		b := uint64(bits.TrailingZeros64(free))
		s := t.levelBase[l] + idx*uint64(t.z[l]) + b
		t.slotAddr[s] = uint32(e.Addr)
		t.slotLeaf[s] = uint32(e.Leaf)
		t.occ[w] |= uint64(1) << b
		t.occupied[l]++
		return l, true
	}
	return 0, false
}

// FreeAt returns the number of free slots in the bucket the path of leaf
// crosses at level — one popcount of the bucket's free mask. The eviction
// drain uses it to cap a level's fill without probing slots.
func (t *Tree) FreeAt(level int, leaf block.Leaf) int {
	o := t.occ[t.occBase[level]+t.BucketIndex(level, leaf)]
	return bits.OnesCount64(^o & t.zmask[level])
}

// Occupied returns the total number of real blocks in the tree.
func (t *Tree) Occupied() uint64 {
	var n uint64
	for _, o := range t.occupied {
		n += o
	}
	return n
}

// OccupiedAt returns the number of real blocks at one level.
func (t *Tree) OccupiedAt(level int) uint64 { return t.occupied[level] }

// Utilization returns the per-level space utilization (real blocks over
// allocated slots), Fig 3's y-axis. On-chip levels report zero here; the
// controller overlays their occupancy from the stash structures.
func (t *Tree) Utilization() []float64 {
	u := make([]float64, t.levels)
	for l := t.minLevel; l < t.levels; l++ {
		slots := (uint64(1) << uint(l)) * uint64(t.z[l])
		if slots > 0 {
			u[l] = float64(t.occupied[l]) / float64(slots)
		}
	}
	return u
}
