package stash

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"
	"slices"

	"iroram/internal/block"
	"iroram/internal/tree"
)

// IRStash is the double-indexed tree-top store of Section IV-C:
//
//   - S-Stash: a set-associative array of block entries, set-indexed by the
//     MD5 hash of the block address (the paper uses MD5 to spread addresses
//     evenly), so the LLC can search it directly — a hit needs no PosMap
//     access, no path access and no remap.
//   - TT: a small pointer table, one entry per tree-top bucket (heap coded
//     level by level exactly as in Fig 8b), whose per-bucket pointers
//     identify the S-Stash slots holding that bucket's blocks. TT lets the
//     ORAM controller traverse the on-chip path segment by tree position.
//
// A block therefore occupies one S-Stash slot and one TT pointer at a time.
// When the write phase cannot place a block because its S-Stash set is
// full, Fill refuses and the block stays in the F-Stash for a later round
// (the paper's conflict rule). A per-set count of free ways answers that
// refusal without scanning the set. The write phase offers each F-Stash
// resident until its first refusal: a set cannot gain a free way while the
// phase only adds blocks.
//
// The set index is always the crypto/md5 one above; the simulator only
// memoizes it. A direct-mapped memo of setMemoSlots entries remembers the
// set of each recently hashed address, and a path read records the set of
// every block it drains, so the write phase that offers those blocks right
// back hashes each F-Stash resident once while it stays hot. Placement,
// conflicts and every simulated output are those of hashing on every call.
type IRStash struct {
	topLevels int
	levels    int
	z         []int
	sets      int
	ways      int
	slots     []sslot
	// free[set] counts the invalid ways of set.
	free []int32
	// tt[node] holds up to Z(level) pointers into slots; -1 means empty.
	tt       [][]int32
	occupied []uint64
	// Conflicts counts Fill refusals whose S-Stash set was full, at most one
	// per block in each write phase. Only tests read it.
	Conflicts uint64
	// memoKey[i] is the address whose MD5 set memoSet[i] holds, at slot
	// mix64(addr) mod setMemoSlots. Unused slots hold block.Invalid with
	// its true set, so no lookup needs an empty-slot branch.
	memoKey []block.ID
	memoSet []uint32
}

// setMemoSlots is the size of each IR-Stash's set-index memo (48 KB). A
// memo four times larger ran the scaled lbm workload no faster.
const setMemoSlots = 4096

type sslot struct {
	addr  block.ID
	leaf  block.Leaf
	valid bool
}

// NewIRStash sizes the S-Stash to hold exactly the tree-top capacity
// (sum over top levels of 2^l * Z(l)) at the given associativity, rounding
// the set count up so capacity is never below the dedicated design's.
func NewIRStash(levels, topLevels int, z []int, ways int) *IRStash {
	if topLevels <= 0 || topLevels >= levels {
		panic(fmt.Sprintf("stash: topLevels %d out of (0,%d)", topLevels, levels))
	}
	if ways <= 0 {
		panic("stash: IR-Stash needs positive associativity")
	}
	capacity := 0
	for l := 0; l < topLevels; l++ {
		capacity += (1 << uint(l)) * z[l]
	}
	sets := (capacity + ways - 1) / ways
	s := &IRStash{
		topLevels: topLevels,
		levels:    levels,
		z:         append([]int(nil), z...),
		sets:      sets,
		ways:      ways,
		slots:     make([]sslot, sets*ways),
		free:      make([]int32, sets),
		tt:        make([][]int32, 1<<uint(topLevels)),
		occupied:  make([]uint64, topLevels),
		memoKey:   make([]block.ID, setMemoSlots),
		memoSet:   make([]uint32, setMemoSlots),
	}
	for i := range s.free {
		s.free[i] = int32(ways)
	}
	invalidSet := s.hashSet(block.Invalid)
	for i := range s.memoKey {
		s.memoKey[i] = block.Invalid
		s.memoSet[i] = invalidSet
	}
	for n := range s.tt {
		level := levelOfNode(n)
		if level >= 0 && level < topLevels {
			ptrs := make([]int32, z[level])
			for i := range ptrs {
				ptrs[i] = -1
			}
			s.tt[n] = ptrs
		}
	}
	return s
}

func levelOfNode(n int) int {
	if n == 0 {
		return -1 // code 0 is skipped, as in the paper
	}
	l := -1
	for n > 0 {
		n >>= 1
		l++
	}
	return l
}

// setOf returns addr's S-Stash set, hashing it only on a memo miss.
func (s *IRStash) setOf(addr block.ID) int {
	i := mix64(addr) & (setMemoSlots - 1)
	if s.memoKey[i] != addr {
		s.memoKey[i] = addr
		s.memoSet[i] = s.hashSet(addr)
	}
	return int(s.memoSet[i])
}

// vacate invalidates slot ptr and returns its set.
func (s *IRStash) vacate(ptr int32) int {
	set := int(ptr) / s.ways
	s.slots[ptr].valid = false
	s.free[set]++
	return set
}

// drained records the set of a block a path read just drained, which the
// write phase is about to offer back to Fill.
func (s *IRStash) drained(addr block.ID, set int) {
	i := mix64(addr) & (setMemoSlots - 1)
	s.memoKey[i], s.memoSet[i] = addr, uint32(set)
}

// hashSet hashes addr with MD5 and maps it to an S-Stash set.
func (s *IRStash) hashSet(addr block.ID) uint32 {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(addr))
	sum := md5.Sum(buf[:])
	return uint32(binary.LittleEndian.Uint64(sum[:8]) % uint64(s.sets))
}

func (s *IRStash) node(level int, leaf block.Leaf) int {
	idx := uint64(leaf) >> (uint(s.levels-1) - uint(level))
	return (1 << uint(level)) + int(idx)
}

// LookupByAddr implements AddrIndex: the fast path for LLC requests.
func (s *IRStash) LookupByAddr(addr block.ID) (block.Leaf, bool) {
	base := s.setOf(addr) * s.ways
	for w := 0; w < s.ways; w++ {
		if sl := &s.slots[base+w]; sl.valid && sl.addr == addr {
			return sl.leaf, true
		}
	}
	return block.NoLeaf, false
}

// ReadPath implements TopStore: it drains the top buckets along leaf via
// the TT pointers.
func (s *IRStash) ReadPath(leaf block.Leaf, dst []tree.Entry) []tree.Entry {
	out := dst
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for i, ptr := range s.tt[n] {
			if ptr < 0 {
				continue
			}
			sl := &s.slots[ptr]
			out = append(out, tree.Entry{Addr: sl.addr, Leaf: sl.leaf})
			s.drained(sl.addr, s.vacate(ptr))
			s.tt[n][i] = -1
			s.occupied[l]--
		}
	}
	return out
}

// ReadPathEach implements TopStore.
func (s *IRStash) ReadPathEach(leaf block.Leaf, visit func(tree.Entry, int)) {
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for i, ptr := range s.tt[n] {
			if ptr < 0 {
				continue
			}
			sl := &s.slots[ptr]
			e := tree.Entry{Addr: sl.addr, Leaf: sl.leaf}
			s.drained(sl.addr, s.vacate(ptr))
			s.tt[n][i] = -1
			s.occupied[l]--
			visit(e, l)
		}
	}
}

// Fill implements TopStore. It refuses when the block's S-Stash set has no
// free way (counted in Conflicts) or its bucket is full.
func (s *IRStash) Fill(level int, leaf block.Leaf, e tree.Entry) bool {
	if !tree.SameSubtree(leaf, e.Leaf, level, s.levels) {
		panic(fmt.Sprintf("stash: block %v (leaf %d) misplaced at top level %d of path %d",
			e.Addr, e.Leaf, level, leaf))
	}
	set := s.setOf(e.Addr)
	if s.free[set] == 0 {
		s.Conflicts++
		return false
	}
	n := s.node(level, leaf)
	ptrIdx := slices.Index(s.tt[n], -1)
	if ptrIdx < 0 {
		return false // bucket full
	}
	w := set * s.ways
	for s.slots[w].valid {
		w++
	}
	s.slots[w] = sslot{addr: e.Addr, leaf: e.Leaf, valid: true}
	s.free[set]--
	s.tt[n][ptrIdx] = int32(w)
	s.occupied[level]++
	return true
}

// Find implements TopStore via the TT walk, mirroring how the controller
// reads the on-chip path segment.
func (s *IRStash) Find(addr block.ID, leaf block.Leaf) (int, bool) {
	for l := 0; l < s.topLevels; l++ {
		for _, ptr := range s.tt[s.node(l, leaf)] {
			if ptr >= 0 && s.slots[ptr].addr == addr {
				return l, true
			}
		}
	}
	return 0, false
}

// Remove implements TopStore.
func (s *IRStash) Remove(addr block.ID, leaf block.Leaf) bool {
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for i, ptr := range s.tt[n] {
			if ptr >= 0 && s.slots[ptr].addr == addr {
				s.vacate(ptr)
				s.tt[n][i] = -1
				s.occupied[l]--
				return true
			}
		}
	}
	return false
}

// Each implements TopStore through the TT pointers, bucket by bucket in
// heap order.
func (s *IRStash) Each(visit func(e tree.Entry, level int, bucket uint64)) {
	for n := 1; n < len(s.tt); n++ {
		level := levelOfNode(n)
		for _, ptr := range s.tt[n] {
			if ptr >= 0 {
				sl := &s.slots[ptr]
				visit(tree.Entry{Addr: sl.addr, Leaf: sl.leaf}, level, uint64(n-1<<uint(level)))
			}
		}
	}
}

// OccupiedAt implements TopStore.
func (s *IRStash) OccupiedAt(level int) uint64 { return s.occupied[level] }

// CapacityAt implements TopStore.
func (s *IRStash) CapacityAt(level int) uint64 {
	return (uint64(1) << uint(level)) * uint64(s.z[level])
}

// Len implements TopStore.
func (s *IRStash) Len() int {
	n := 0
	for _, o := range s.occupied {
		n += int(o)
	}
	return n
}
