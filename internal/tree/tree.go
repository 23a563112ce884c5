// Package tree implements the ORAM tree: bucket storage with per-level
// bucket sizes (the substrate of IR-Alloc), path indexing, occupancy
// accounting for the utilization studies (Fig 3/4/13), and the subtree
// physical layout of Ren et al. that gives path accesses DRAM row-buffer
// locality.
//
// The tree stores only the memory-resident levels, from the minLevel given
// to New down to the leaves; the on-chip top levels live in internal/stash
// (dedicated TopCache or S-Stash).
//
// # Bucket records
//
// Every bucket is one record of 1+Z uint64 words in a single array: the
// bucket's occupancy word first, then its Z slot words (addr | leaf<<32).
// A level's records are contiguous, so bucket (level, idx) starts at
// word base[level] + idx*(1+Z[level]). One record per bucket puts a
// bucket's occupancy and its blocks in the same or the adjacent cache
// line, so a path walk pays about one miss per deep level instead of one
// per array.
//
// # Occupancy invariant
//
// Bit b of a bucket's occupancy word (every supported geometry has
// Z <= 64) is set exactly when slot b holds a real block. The word is
// authoritative — every mutation updates it in lockstep with the slot
// writes, slot words are meaningful only where their bit is set (removal
// clears the bit without touching the slot), and no validity sentinel is
// ever consulted. Path walks load every level's occupancy word first, then
// iterate set bits (bits.TrailingZeros64) in ascending slot order; fills
// claim the lowest clear bit of ^occ&mask — both identical in visit and
// placement order to a per-slot scan (pinned by the differential tests in
// occupancy_test.go) — and empty buckets skip in O(1) on one word.
//
// # Initial placement
//
// Load places every block of the unified space on its path, deepest free
// slot first, in id order (Stefanov et al.'s initial state), one level at a
// time. On a large tree one pass per level would scatter random writes over
// the whole level: Scaled's leaf level is 40 MB. Load therefore cuts the
// tree into 2^p partitions along the top p leaf bits. Partition q owns
// buckets [q<<(l-p), (q+1)<<(l-p)) at every level l, one contiguous run of
// records, and a block's whole path below level p lies inside the partition
// of its leaf. p is the fewest bits that leave each partition at most
// 2^loadSliceBits leaf buckets (Scaled: p = 7, 128 partitions of 320 KB at
// the leaves), capped at minLevel so that every level Load fills is split
// the same way.
//
// A count pass and a stable scatter put the blocks in (partition, id) order
// in a buffer of one slot word per block. Each partition then runs the
// deepest-first level passes over its own records with its own fill counts,
// which stay in a core's cache. The passes are split over
// min(GOMAXPROCS, 2^p) goroutines: the count and scatter passes by id range,
// with one histogram per worker so every partition stays in id order, and
// the fill passes by partition. Since a bucket still takes the first Z
// arrivals by id, the records are those of the one-pass load. The blocks
// that fit nowhere are merged back into id order for the caller, who
// spills them to the on-chip levels and the stash.
//
// A tree whose leaf level fits in one slice (Tiny's, 2^13 buckets) has
// p = 0 and loads in one pass with no buffer and no goroutine: there the
// whole level already stays in cache, and the scatter would only add work to
// the hundreds of Tiny Systems a quick sweep builds.
package tree

import (
	"cmp"
	"fmt"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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
// geometry (config caps Levels at config.MaxLevels), so the top bit of the
// 32-bit leaf is free. The flag exists only inside the eviction drain's
// scratch: the write phase strips it before an entry reaches any storage
// structure (tree, tree-top store, or stash), and classification masks it
// before leaf arithmetic.
const GatherFlag block.Leaf = 1 << 31

// Tree is the bucket storage of the memory-resident levels.
type Tree struct {
	levels   int
	minLevel int
	z        []int
	leafBits uint // levels-1, shift for path indexing
	lv       []levelGeom
	// rec holds the bucket records of levels [minLevel, levels); see the
	// package doc.
	rec      []uint64
	occupied []uint64 // per level, indexed [0, levels); top levels stay 0
}

// levelGeom locates one level's records in Tree.rec.
type levelGeom struct {
	base  uint64 // word offset of the level's first record
	width uint64 // words per record: 1 + Z
	mask  uint64 // low Z bits set: ^occ&mask is a bucket's free-slot mask
}

// New allocates an empty tree holding levels [minLevel, o.Levels). Slot
// words store addresses and leaves as uint32 halves, and config.Validate
// rejects every geometry whose unified block space reaches 2^32. New
// panics if o.Levels exceeds config.MaxLevels or any bucket size exceeds
// the 64 slots an occupancy word can track.
func New(o config.ORAM, minLevel int) *Tree {
	if minLevel < 0 || minLevel >= o.Levels || o.Levels > config.MaxLevels {
		panic(fmt.Sprintf("tree: minLevel %d out of [0,%d) or more than %d levels",
			minLevel, o.Levels, config.MaxLevels))
	}
	t := &Tree{
		levels:   o.Levels,
		minLevel: minLevel,
		z:        append([]int(nil), o.Z...),
		leafBits: uint(o.Levels - 1),
		lv:       make([]levelGeom, o.Levels),
		occupied: make([]uint64, o.Levels),
	}
	var words uint64
	for l := 0; l < o.Levels; l++ {
		if o.Z[l] > 64 {
			panic(fmt.Sprintf("tree: Z=%d at level %d exceeds the 64-slot occupancy word", o.Z[l], l))
		}
		t.lv[l] = levelGeom{
			base:  words,
			width: 1 + uint64(o.Z[l]),
			mask:  ^uint64(0) >> (64 - uint(o.Z[l])),
		}
		if l >= minLevel {
			words += (uint64(1) << uint(l)) * t.lv[l].width
		}
	}
	t.rec = make([]uint64, words)
	return t
}

// slotWord packs e into a slot word; entryOf unpacks one.
func slotWord(e Entry) uint64 { return uint64(uint32(e.Addr)) | uint64(e.Leaf)<<32 }

func entryOf(s uint64) Entry {
	return Entry{Addr: block.ID(uint32(s)), Leaf: block.Leaf(s >> 32)}
}

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

// record returns the offset in rec of the record of the bucket the path of
// leaf crosses at level.
func (t *Tree) record(level int, leaf block.Leaf) uint64 {
	g := &t.lv[level]
	return g.base + t.BucketIndex(level, leaf)*g.width
}

// loadPath copies the occupancy word of every memory-resident bucket on the
// path of leaf into occ before any of them is used, so the cache misses of
// the levels overlap instead of each queueing behind the previous level's
// walk. A bucket's slots share its record, so the walk that follows finds
// them in, or next to, the lines these loads bring in.
func (t *Tree) loadPath(leaf block.Leaf, occ *[config.MaxLevels]uint64) {
	for l := t.minLevel; l < t.levels; l++ {
		occ[l] = t.rec[t.record(l, leaf)]
	}
}

// ReadPath removes every real block on the path of leaf (memory-resident
// levels only), leaving those buckets empty — the read phase of a path
// access. The blocks are appended to dst (pass nil, or a reused buffer to
// keep the hot path allocation-free) and returned root-to-leaf.
func (t *Tree) ReadPath(leaf block.Leaf, dst []Entry) []Entry {
	var occ [config.MaxLevels]uint64
	t.loadPath(leaf, &occ)
	out := dst
	for l := t.minLevel; l < t.levels; l++ {
		o := occ[l]
		if o == 0 {
			continue
		}
		w := t.record(l, leaf)
		t.rec[w] = 0
		t.occupied[l] -= uint64(bits.OnesCount64(o))
		for ; o != 0; o &= o - 1 {
			out = append(out, entryOf(t.rec[w+1+uint64(bits.TrailingZeros64(o))]))
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
	var occ [config.MaxLevels]uint64
	t.loadPath(leaf, &occ)
	for l := t.minLevel; l < t.levels; l++ {
		o := occ[l]
		if o == 0 {
			continue
		}
		w := t.record(l, leaf)
		t.rec[w] = 0
		t.occupied[l] -= uint64(bits.OnesCount64(o))
		for ; o != 0; o &= o - 1 {
			visit(entryOf(t.rec[w+1+uint64(bits.TrailingZeros64(o))]), l)
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
	w := t.record(level, leaf)
	o := t.rec[w]
	if o == 0 {
		// Just-drained bucket (the write phase's common case): the free
		// mask is the full slot range, so ascending-order claiming is a
		// straight sequential write of slots [0, len(entries)).
		for i, e := range entries {
			if !SameSubtree(leaf, e.Leaf, level, t.levels) {
				panic(fmt.Sprintf("tree: block %v (leaf %d) misplaced at level %d of path %d",
					e.Addr, e.Leaf, level, leaf))
			}
			t.rec[w+1+uint64(i)] = slotWord(e)
		}
		t.rec[w] = uint64(1)<<uint(len(entries)) - 1
		t.occupied[level] += uint64(len(entries))
		return
	}
	free := ^o & t.lv[level].mask
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
		t.rec[w+1+b] = slotWord(e)
	}
	t.rec[w] = o
	t.occupied[level] += uint64(len(entries))
}

// locate finds addr on the path of leaf: the level, the bucket's record
// offset and the slot holding it.
func (t *Tree) locate(addr block.ID, leaf block.Leaf) (level int, w uint64, slot int, ok bool) {
	var occ [config.MaxLevels]uint64
	t.loadPath(leaf, &occ)
	for l := t.minLevel; l < t.levels; l++ {
		w := t.record(l, leaf)
		for o := occ[l]; o != 0; o &= o - 1 {
			b := bits.TrailingZeros64(o)
			if block.ID(uint32(t.rec[w+1+uint64(b)])) == addr {
				return l, w, b, true
			}
		}
	}
	return 0, 0, 0, false
}

// Find scans the path of leaf for addr without modifying the tree and
// returns the level holding it.
func (t *Tree) Find(addr block.ID, leaf block.Leaf) (level int, ok bool) {
	level, _, _, ok = t.locate(addr, leaf)
	return level, ok
}

// Remove deletes addr from the path of leaf. Like Find, it reports the
// level the block held and whether it was found.
func (t *Tree) Remove(addr block.ID, leaf block.Leaf) (level int, ok bool) {
	level, w, b, ok := t.locate(addr, leaf)
	if ok {
		t.rec[w] &^= uint64(1) << uint(b)
		t.occupied[level]--
	}
	return level, ok
}

// Load fills an empty tree with blocks 0..n-1, block id mapped to
// leafOf(id), and appends the blocks that fit on no memory-resident level
// to spill in id order. The result is, slot for slot, that of placing the
// blocks one at a time in id order, each at the deepest level of its path
// with a free slot (the controller's initial placement). leafOf may be
// called from several goroutines at once.
//
// Load computes it one level at a time, deepest first. A level's pass runs
// over the blocks not yet placed, in id order; a dense per-bucket count
// decides whether a block fits, the block goes into the next slot of its
// bucket, and the overflow, still in id order, is the next level's input.
// One-at-a-time placement gives a bucket the same blocks in the same slots:
// a block reaches a level only after every deeper bucket on its path is
// full, and a bucket takes the first Z arrivals by id. The level's
// occupancy words are then written in one sequential pass.
//
// A tree whose leaf level is larger than 2^loadSliceBits buckets runs these
// passes one partition at a time, on up to GOMAXPROCS goroutines, and
// merges the partitions' leftovers back into id order (see the package
// doc). A smaller one, Tiny's included, runs them once over the whole tree,
// with no scatter buffer and no goroutine. The result does not depend on
// the worker count. Load panics if the tree is not empty.
func (t *Tree) Load(n uint64, leafOf func(block.ID) block.Leaf, spill []Entry) []Entry {
	return t.load(n, leafOf, spill, runtime.GOMAXPROCS(0))
}

// loadSliceBits bounds one Load partition to 2^loadSliceBits leaf buckets:
// 320 KB of records at Z=4, and as much again over the partition's buckets
// at every shallower level, which stays in a core's L2 cache while the
// partition's blocks are placed.
const loadSliceBits = 13

// partitionBits returns p, the number of top leaf bits Load partitions on:
// the fewest that cut the leaf level into slices of at most
// 2^loadSliceBits buckets, capped at minLevel so that every level Load fills
// splits along the same lines.
func (t *Tree) partitionBits() uint {
	return uint(min(max(t.levels-1-loadSliceBits, 0), t.minLevel))
}

// load is Load on at most workers goroutines; the result does not depend on
// workers. Both passes carry blocks as slot words (slotWord), so a placement
// copies one word into its slot.
func (t *Tree) load(n uint64, leafOf func(block.ID) block.Leaf, spill []Entry, workers int) []Entry {
	if t.Occupied() != 0 {
		panic("tree: Load into a non-empty tree")
	}
	var left []uint64
	if p := t.partitionBits(); p == 0 {
		left = t.loadWhole(n, leafOf)
	} else {
		left = t.loadPartitioned(n, leafOf, p, workers)
	}
	for _, s := range left {
		spill = append(spill, entryOf(s))
	}
	return spill
}

// loadWhole is Load's single pass over the whole tree. It returns the
// blocks that fit nowhere, in id order.
func (t *Tree) loadWhole(n uint64, leafOf func(block.ID) block.Leaf) []uint64 {
	deepest := t.levels - 1
	cnt := t.loadCounts()
	// At the controller's load (the paper's 50% rule plus the PosMap
	// blocks) about a fifth of the blocks overflow the deepest level.
	over := make([]uint64, 0, n/4)
	f := t.levelFill(deepest, cnt)
	for id := uint64(0); id < n; id++ {
		s := slotWord(Entry{Addr: block.ID(id), Leaf: leafOf(block.ID(id))})
		if !f.put(s) {
			over = append(over, s)
		}
	}
	t.occupied[deepest] = t.loadOccupancy(deepest, 0, f.cnt)
	return t.fillLevels(0, 0, deepest-1, over, cnt, t.occupied)
}

// loadPartitioned is Load over 2^p partitions on at most workers
// goroutines. It returns the blocks that fit nowhere, in id order.
func (t *Tree) loadPartitioned(n uint64, leafOf func(block.ID) block.Leaf, p uint, workers int) []uint64 {
	parts := 1 << p
	workers = min(workers, parts)
	shift := t.leafBits - p // a leaf's partition is leaf >> shift
	ids := func(w int) (lo, hi uint64) {
		return n * uint64(w) / uint64(workers), n * uint64(w+1) / uint64(workers)
	}
	// Count each worker's id range per partition, then turn the counts into
	// scatter cursors: partition q starts at start[q], and within it worker
	// w's blocks follow those of every worker below w, so the scatter keeps
	// every partition in id order.
	next := make([]uint64, workers*parts)
	forEachWorker(workers, func(w int) {
		h := next[w*parts : (w+1)*parts]
		lo, hi := ids(w)
		for id := lo; id < hi; id++ {
			h[uint64(leafOf(block.ID(id)))>>shift]++
		}
	})
	start := make([]uint64, parts+1)
	var pos uint64
	for q := 0; q < parts; q++ {
		start[q] = pos
		for w := 0; w < workers; w++ {
			c := next[w*parts+q]
			next[w*parts+q] = pos
			pos += c
		}
	}
	start[parts] = pos
	buf := make([]uint64, n)
	forEachWorker(workers, func(w int) {
		cur := next[w*parts : (w+1)*parts]
		lo, hi := ids(w)
		for id := lo; id < hi; id++ {
			leaf := leafOf(block.ID(id))
			q := uint64(leaf) >> shift
			buf[cur[q]] = slotWord(Entry{Addr: block.ID(id), Leaf: leaf})
			cur[q]++
		}
	})

	// Fill the partitions, each worker taking the next unfilled one. A
	// partition's leftovers stay at the front of its run of buf, and each
	// worker sums its own per-level occupancy.
	cnt := t.loadCounts()
	left := make([]int, parts)
	occupied := make([]uint64, workers*t.levels)
	var claimed atomic.Int64
	forEachWorker(workers, func(w int) {
		occ := occupied[w*t.levels : (w+1)*t.levels]
		for q := int(claimed.Add(1) - 1); q < parts; q = int(claimed.Add(1) - 1) {
			left[q] = len(t.fillLevels(uint64(q), p, t.levels-1, buf[start[q]:start[q+1]], cnt, occ))
		}
	})
	for i, c := range occupied {
		t.occupied[i%t.levels] += c
	}
	// Each partition's leftovers are in id order; sorting their union by
	// address puts them in the id order of the single pass.
	var over []uint64
	for q := 0; q < parts; q++ {
		over = append(over, buf[start[q]:start[q]+uint64(left[q])]...)
	}
	slices.SortFunc(over, func(a, b uint64) int { return cmp.Compare(uint32(a), uint32(b)) })
	return over
}

// forEachWorker runs f(0), ..., f(workers-1), each on its own goroutine
// when there is more than one, and returns when all have.
func forEachWorker(workers int, f func(w int)) {
	if workers == 1 {
		f(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			f(w)
		}()
	}
	wg.Wait()
}

// loadCounts returns zeroed fill counts for every level, in heap order:
// the 2^l buckets of level l count in cnt[1<<l : 2<<l]. A level's pass
// indexes its counts by bucket index, and two partitions, at the same level
// or at different ones, never share a count.
func (t *Tree) loadCounts() []uint8 { return make([]uint8, uint64(2)<<t.leafBits) }

// fillLevels runs Load's level passes over partition q of p partition bits
// (the whole tree when p is 0) from level from up to minLevel, with the
// fill counts of loadCounts. blocks are the partition's unplaced blocks in
// id order; the ones that fit nowhere are returned compacted, in id order,
// at the front of blocks. occupied[l] gains the blocks placed at level l.
func (t *Tree) fillLevels(q uint64, p uint, from int, blocks []uint64, cnt []uint8, occupied []uint64) []uint64 {
	for l := from; l >= t.minLevel && len(blocks) > 0; l-- {
		f := t.levelFill(l, cnt)
		kept := blocks[:0]
		for _, s := range blocks {
			if !f.put(s) {
				kept = append(kept, s)
			}
		}
		blocks = kept
		lo, hi := q<<(uint(l)-p), (q+1)<<(uint(l)-p)
		occupied[l] += t.loadOccupancy(l, lo, f.cnt[lo:hi])
	}
	return blocks
}

// levelFill places blocks into the buckets of one level during Load. It
// copies the level's geometry out of the Tree so the per-block loop reads
// and writes nothing but the count and the records (the loop through Tree
// fields and its occupied counter ran about twice as long on Scaled; an
// offset into the counts, loaded per block, cost Tiny's one-pass load 10%).
type levelFill struct {
	rec         []uint64
	cnt         []uint8 // blocks placed so far in each bucket of the level
	base, width uint64
	shift       uint // a slot word's bucket in the level is s >> shift
	z           uint8
}

// levelFill returns the filler of level, counting in its part of the
// loadCounts array cnt.
func (t *Tree) levelFill(level int, cnt []uint8) levelFill {
	g := t.lv[level]
	return levelFill{rec: t.rec, cnt: cnt[1<<level : 2<<level], base: g.base, width: g.width,
		shift: 32 + t.leafBits - uint(level), z: uint8(t.z[level])}
}

// put stores the block of slot word s in the next free slot of its bucket
// and reports whether the bucket had one.
func (f *levelFill) put(s uint64) bool {
	idx := s >> f.shift
	c := f.cnt[idx]
	if c >= f.z {
		return false
	}
	f.rec[f.base+idx*f.width+1+uint64(c)] = s
	f.cnt[idx] = c + 1
	return true
}

// loadOccupancy writes the occupancy word of every bucket of level from
// lo on from its fill count in cnt, in one sequential pass, and returns the
// number of blocks they hold.
func (t *Tree) loadOccupancy(level int, lo uint64, cnt []uint8) uint64 {
	g := &t.lv[level]
	var n uint64
	for i, c := range cnt {
		t.rec[g.base+(lo+uint64(i))*g.width] = uint64(1)<<c - 1
		n += uint64(c)
	}
	return n
}

// Each hands every real block of the tree to visit with its level and
// bucket index, level by level in ascending bucket and slot order, without
// modifying the tree. visit must not touch the tree.
func (t *Tree) Each(visit func(e Entry, level int, bucket uint64)) {
	for l := t.minLevel; l < t.levels; l++ {
		g := &t.lv[l]
		for idx := uint64(0); idx < uint64(1)<<uint(l); idx++ {
			w := g.base + idx*g.width
			for o := t.rec[w]; o != 0; o &= o - 1 {
				visit(entryOf(t.rec[w+1+uint64(bits.TrailingZeros64(o))]), l, idx)
			}
		}
	}
}

// Occupied returns the total number of real blocks in the tree.
func (t *Tree) Occupied() uint64 {
	var n uint64
	for _, o := range t.occupied {
		n += o
	}
	return n
}

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
