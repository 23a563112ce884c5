package core

import (
	"math/bits"

	"iroram/internal/block"
)

// pathSet is the per-path-access membership set for "which blocks did this
// path fetch" (recordMigration's fetched-vs-preexisting split). It has the
// exact semantics of the eviction oracle's epochSet (epochset_test.go) —
// Add, Has, O(1) generation-bump Reset — but where epochSet direct-indexes
// a stamp per block of the unified space (pm.Total() entries,
// DRAM-resident at realistic geometries, so every Has on the write phase
// was a cold cache miss), pathSet open-addresses a table sized to one
// path's block count: membership never exceeds the blocks a single read
// phase gathers between Resets, so a few hundred bytes stay L1-resident
// across the whole access.
//
// A slot is live iff its stamp equals the current generation; stale slots
// from earlier generations act as empty, terminating probes. Entries are
// never deleted within a generation, so probe chains have no holes.
type pathSet struct {
	keys   []block.ID
	stamps []uint32
	mask   uint64
	shift  uint
	gen    uint32
}

// newPathSet returns an empty set holding at most capacity members per
// generation, sized at or below 25% load so probe chains stay short.
func newPathSet(capacity int) *pathSet {
	slots := 16
	for slots < 4*capacity {
		slots <<= 1
	}
	return &pathSet{
		keys:   make([]block.ID, slots),
		stamps: make([]uint32, slots),
		mask:   uint64(slots - 1),
		shift:  uint(64 - bits.Len(uint(slots-1))),
		gen:    1,
	}
}

// slot returns the home slot of id. One Fibonacci multiply suffices here —
// unlike AddrTable (arbitrary long-lived key sets) this table holds a few
// dozen keys per generation at 25% load, and the hash runs twice per
// gathered block on the hottest loop of the simulator, so it is kept to a
// single multiply and shift.
func (s *pathSet) slot(id block.ID) uint64 {
	return (uint64(id) * 0x9e3779b97f4a7c15) >> s.shift
}

// Reset empties the set in O(1). On the (once per 2^32 resets) generation
// wrap the stamp array is cleared so stale stamps from the previous cycle
// cannot alias the new generation.
func (s *pathSet) Reset() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamps)
		s.gen = 1
	}
}

// Add marks id as a member of the current generation. Adding more members
// than the constructed capacity is a caller bug (the table does not grow);
// the controller's bound is one path's block count.
func (s *pathSet) Add(id block.ID) {
	for i := s.slot(id); ; i = (i + 1) & s.mask {
		if s.stamps[i] != s.gen {
			s.keys[i] = id
			s.stamps[i] = s.gen
			return
		}
		if s.keys[i] == id {
			return
		}
	}
}

// Has reports membership of id in the current generation.
func (s *pathSet) Has(id block.ID) bool {
	for i := s.slot(id); ; i = (i + 1) & s.mask {
		if s.stamps[i] != s.gen {
			return false
		}
		if s.keys[i] == id {
			return true
		}
	}
}
