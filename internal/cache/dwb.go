package cache

import (
	"fmt"
	"math/bits"
)

// DWBScanner implements the candidate-search half of IR-DWB (Fig 9): a Ptr
// register that round-robins across LLC sets looking for a dirty LRU entry
// while the LLC is idle. If a full sweep finds nothing, the search pauses
// for 1000 cycles and restarts from a random set, exactly as the paper's
// small state machine (borrowed from autonomous eager writeback) does.
//
// Since PR 4 the search itself is a word-wise scan of the cache's per-set
// summary bitmaps (see Cache.EnableLRUTracking) instead of an O(sets)
// set-by-set sweep: the candidate returned, the cursor advance and the
// pause/restart behavior are identical to the historical sweep, which is
// retained in dwb_test.go (findCandidateSweep) as the differential-test
// oracle.
type DWBScanner struct {
	c          *Cache
	cursor     int
	pauseUntil uint64
	randSet    func() int
	// anyLRU widens the predicate from dirty-LRU to any LRU line (the
	// proactive-remapping extension, where clean LLC-D lines also need
	// PosMap work at eviction).
	anyLRU bool

	// Candidates found / sweeps that came up empty, for diagnostics.
	Found, EmptySweeps uint64
}

// scanPause is the paper's 1000-cycle back-off after an empty sweep.
const scanPause = 1000

// NewDWBScanner attaches a scanner to c. randSet supplies the random restart
// set; it must return values in [0, c.Sets()).
func NewDWBScanner(c *Cache, randSet func() int) *DWBScanner {
	c.EnableLRUTracking()
	return &DWBScanner{c: c, randSet: randSet}
}

// NewLRUScanner is NewDWBScanner with the any-LRU predicate.
func NewLRUScanner(c *Cache, randSet func() int) *DWBScanner {
	c.EnableLRUTracking()
	return &DWBScanner{c: c, randSet: randSet, anyLRU: true}
}

// FindCandidate returns the dirty LRU entry of the first set at or after the
// round-robin cursor, advancing the cursor past it. During the pause window
// after an empty sweep it reports no candidate.
func (s *DWBScanner) FindCandidate(now uint64) (addr uint64, ok bool) {
	if now < s.pauseUntil {
		return 0, false
	}
	bm := s.c.dirtySummary
	if s.anyLRU {
		bm = s.c.lruSummary
	}
	if si, found := scanBitmapFrom(bm, s.cursor); found {
		if s.anyLRU {
			addr, _ = s.c.LRU(si)
		} else {
			addr, _ = s.c.DirtyLRU(si)
		}
		s.cursor = si + 1
		if s.cursor == s.c.sets {
			s.cursor = 0
		}
		s.Found++
		return addr, true
	}
	s.EmptySweeps++
	s.pauseUntil = now + scanPause
	s.cursor = s.restartSet()
	return 0, false
}

// restartSet draws the post-empty-sweep restart set, validating randSet's
// contract so a buggy supplier fails loudly instead of indexing (or
// bit-scanning) out of range on some later call.
func (s *DWBScanner) restartSet() int {
	si := s.randSet()
	if si < 0 || si >= s.c.sets {
		panic(fmt.Sprintf("cache: DWBScanner randSet returned %d, want [0,%d)",
			si, s.c.sets))
	}
	return si
}

// scanBitmapFrom returns the index of the first set bit at or after `from`,
// wrapping once past the end — the bitmap analogue of the round-robin
// sweep. Bits above the set count are never set (refreshSummary only writes
// bits < sets), so no tail masking is needed.
func scanBitmapFrom(bm []uint64, from int) (int, bool) {
	// [from, end)
	w := from >> 6
	word := bm[w] &^ (uint64(1)<<uint(from&63) - 1)
	for {
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word), true
		}
		w++
		if w == len(bm) {
			break
		}
		word = bm[w]
	}
	// wrap: [0, from)
	limW := from >> 6
	for w = 0; w <= limW; w++ {
		word = bm[w]
		if w == limW {
			word &= uint64(1)<<uint(from&63) - 1
		}
		if word != 0 {
			return w<<6 | bits.TrailingZeros64(word), true
		}
	}
	return 0, false
}
