package stash

import (
	"crypto/md5"
	"encoding/binary"
	"fmt"

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
// (the paper's conflict rule).
//
// The set index is always the crypto/md5 one above; the simulator only
// memoizes it. A direct-mapped memo of setMemoSlots entries remembers the
// set of each recently hashed address, so the write phase, which re-offers
// the same F-Stash residents at every on-chip level of every path, hashes
// each of them once while it stays hot. Placement, conflicts and every
// simulated output are those of hashing on every call.
type IRStash struct {
	topLevels int
	levels    int
	z         []int
	sets      int
	ways      int
	slots     []sslot
	// tt[node] holds up to Z(level) pointers into slots; -1 means empty.
	tt       [][]int32
	occupied []uint64
	// Conflicts counts Fill refusals due to S-Stash set conflicts.
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
	node  int32 // owning TT bucket, for reverse removal
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
		tt:        make([][]int32, 1<<uint(topLevels)),
		occupied:  make([]uint64, topLevels),
		memoKey:   make([]block.ID, setMemoSlots),
		memoSet:   make([]uint32, setMemoSlots),
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
			sl.valid = false
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
			sl.valid = false
			s.tt[n][i] = -1
			s.occupied[l]--
			visit(e, l)
		}
	}
}

// Fill implements TopStore. It refuses on bucket overflow or when the
// block's S-Stash set has no free way (counted in Conflicts).
func (s *IRStash) Fill(level int, leaf block.Leaf, e tree.Entry) bool {
	if !tree.SameSubtree(leaf, e.Leaf, level, s.levels) {
		panic(fmt.Sprintf("stash: block %v (leaf %d) misplaced at top level %d of path %d",
			e.Addr, e.Leaf, level, leaf))
	}
	n := s.node(level, leaf)
	ptrIdx := -1
	for i, ptr := range s.tt[n] {
		if ptr < 0 {
			ptrIdx = i
			break
		}
	}
	if ptrIdx < 0 {
		return false // bucket full
	}
	base := s.setOf(e.Addr) * s.ways
	for w := 0; w < s.ways; w++ {
		if sl := &s.slots[base+w]; !sl.valid {
			*sl = sslot{addr: e.Addr, leaf: e.Leaf, node: int32(n), valid: true}
			s.tt[n][ptrIdx] = int32(base + w)
			s.occupied[level]++
			return true
		}
	}
	s.Conflicts++
	return false
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
				s.slots[ptr].valid = false
				s.tt[n][i] = -1
				s.occupied[l]--
				return true
			}
		}
	}
	return false
}

// RemoveByAddr deletes addr found through the address index (used when an
// S-Stash-resident block is invalidated, e.g. by LLC-D takeover).
func (s *IRStash) RemoveByAddr(addr block.ID) bool {
	base := s.setOf(addr) * s.ways
	for w := 0; w < s.ways; w++ {
		sl := &s.slots[base+w]
		if sl.valid && sl.addr == addr {
			for i, ptr := range s.tt[sl.node] {
				if ptr == int32(base+w) {
					s.tt[sl.node][i] = -1
					break
				}
			}
			s.occupied[levelOfNode(int(sl.node))]--
			sl.valid = false
			return true
		}
	}
	return false
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

// TTBytes returns the TT table size in bytes using the paper's 12-bit
// pointer encoding ((2^t - 1) buckets x Z pointers x 12 bits) — 6 KB for
// the Table I geometry, the space-overhead number of Section VI-F.
func (s *IRStash) TTBytes() int {
	bits := 0
	for l := 0; l < s.topLevels; l++ {
		bits += (1 << uint(l)) * s.z[l] * 12
	}
	return bits / 8
}
