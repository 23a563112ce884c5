package cache

import (
	"testing"

	"iroram/internal/rng"
)

// applyRandomOp mutates c with one random cache operation drawn from r.
// Both caches in a differential pair receive the same stream.
func applyRandomOp(c *Cache, r *rng.Source, addrSpace uint64) {
	a := r.Uint64n(addrSpace)
	switch r.Intn(5) {
	case 0, 1:
		if !c.Access(a, r.Float64() < 0.5) {
			c.Insert(a, r.Float64() < 0.5)
		}
	case 2:
		c.Insert(a, r.Float64() < 0.3)
	case 3:
		c.MarkClean(a)
	default:
		c.MarkDirty(a)
	}
}

// findCandidateSweep is the historical O(sets) implementation, retained
// verbatim (modulo the restart validation) as the oracle for
// TestDWBScannerDifferential: state transitions must match FindCandidate's
// exactly on any cache/op sequence.
func (s *DWBScanner) findCandidateSweep(now uint64) (addr uint64, ok bool) {
	if now < s.pauseUntil {
		return 0, false
	}
	for i := 0; i < s.c.Sets(); i++ {
		si := (s.cursor + i) % s.c.Sets()
		var a uint64
		var ok bool
		if s.anyLRU {
			a, ok = s.c.LRU(si)
		} else {
			a, ok = s.c.DirtyLRU(si)
		}
		if ok {
			s.cursor = (si + 1) % s.c.Sets()
			return a, true
		}
	}
	s.pauseUntil = now + scanPause
	s.cursor = s.restartSet()
	return 0, false
}

// TestDWBScannerDifferential replays identical op streams into two caches —
// one scanned by the bitmap FindCandidate, one by the retained historical
// sweep (findCandidateSweep) — and requires identical candidates, cursor
// positions and pause windows at every step. Both the dirty-LRU
// and the any-LRU predicates are covered, over geometries that exercise
// partial bitmap words (sets < 64), exact words (sets == 64) and multiple
// words (sets > 64).
func TestDWBScannerDifferential(t *testing.T) {
	geometries := []struct{ sets, ways int }{
		{4, 2}, {16, 4}, {64, 2}, {128, 4}, {256, 8},
	}
	for _, anyLRU := range []bool{false, true} {
		for _, g := range geometries {
			newScan := NewDWBScanner
			if anyLRU {
				newScan = NewLRUScanner
			}
			cLive, cRef := New(g.sets, g.ways), New(g.sets, g.ways)
			// Identical restart RNGs keep the post-empty-sweep cursors in
			// lockstep.
			rLive, rRef := rng.New(7), rng.New(7)
			sLive := newScan(cLive, func() int { return rLive.Intn(g.sets) })
			sRef := newScan(cRef, func() int { return rRef.Intn(g.sets) })

			// One shared op stream drives both caches so their line states
			// are identical at every FindCandidate call.
			ops := rng.New(uint64(g.sets)*31 + uint64(g.ways))
			addrSpace := uint64(g.sets * g.ways * 4)
			now := uint64(0)
			for i := 0; i < 20000; i++ {
				a := ops.Uint64n(addrSpace)
				op := ops.Intn(5)
				dirty := ops.Float64() < 0.5
				for _, c := range []*Cache{cLive, cRef} {
					switch op {
					case 0, 1:
						if !c.Access(a, dirty) {
							c.Insert(a, dirty)
						}
					case 2:
						c.Insert(a, dirty)
					case 3:
						c.MarkClean(a)
					default:
						c.MarkDirty(a)
					}
				}
				now += uint64(ops.Intn(400))
				gotA, gotOK := sLive.FindCandidate(now)
				wantA, wantOK := sRef.findCandidateSweep(now)
				if gotA != wantA || gotOK != wantOK {
					t.Fatalf("%v sets=%d step %d: FindCandidate = %d,%v sweep oracle = %d,%v",
						anyLRU, g.sets, i, gotA, gotOK, wantA, wantOK)
				}
				if sLive.cursor != sRef.cursor || sLive.pauseUntil != sRef.pauseUntil {
					t.Fatalf("%v sets=%d step %d: scanner state diverged: cursor %d/%d pause %d/%d",
						anyLRU, g.sets, i, sLive.cursor, sRef.cursor,
						sLive.pauseUntil, sRef.pauseUntil)
				}
			}
		}
	}
}

// TestSummaryBitmapsMatchPredicates checks, after a random workload, that
// every summary bit equals the predicate it caches (set-full for lruSummary,
// dirty-LRU for dirtySummary) recomputed from scratch.
func TestSummaryBitmapsMatchPredicates(t *testing.T) {
	c := New(48, 4) // partial final bitmap word
	c.EnableLRUTracking()
	r := rng.New(5)
	for i := 0; i < 30000; i++ {
		applyRandomOp(c, r, 48*4*3)
	}
	for si := 0; si < c.sets; si++ {
		w, bit := si>>6, uint64(1)<<uint(si&63)
		_, wantLRU := c.LRU(si)
		if got := c.lruSummary[w]&bit != 0; got != wantLRU {
			t.Errorf("set %d: lruSummary bit %v, predicate %v", si, got, wantLRU)
		}
		_, wantDirty := c.DirtyLRU(si)
		if got := c.dirtySummary[w]&bit != 0; got != wantDirty {
			t.Errorf("set %d: dirtySummary bit %v, predicate %v", si, got, wantDirty)
		}
	}
	// Tail bits past the set count must stay zero (scanBitmapFrom relies
	// on it).
	if tail := c.lruSummary[0] >> 48; tail != 0 {
		t.Errorf("lruSummary tail bits set: %#x", tail)
	}
	if tail := c.dirtySummary[0] >> 48; tail != 0 {
		t.Errorf("dirtySummary tail bits set: %#x", tail)
	}
}

// TestScannerRandSetValidation: an out-of-range restart set must fail
// loudly, not index out of range later.
func TestScannerRandSetValidation(t *testing.T) {
	c := New(4, 1)
	s := NewDWBScanner(c, func() int { return 4 }) // out of [0,4)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-range randSet")
		}
	}()
	s.FindCandidate(0) // empty cache -> empty sweep -> restart draw
}

// TestScanBitmapFrom covers the wrap and word-boundary cases directly.
func TestScanBitmapFrom(t *testing.T) {
	bm := make([]uint64, 2) // 128 sets
	set := func(si int) { bm[si>>6] |= 1 << uint(si&63) }
	clearAll := func() { bm[0], bm[1] = 0, 0 }

	if _, ok := scanBitmapFrom(bm, 17); ok {
		t.Fatal("empty bitmap yielded a hit")
	}
	set(5)
	if si, ok := scanBitmapFrom(bm, 0); !ok || si != 5 {
		t.Fatalf("got %d,%v want 5,true", si, ok)
	}
	if si, ok := scanBitmapFrom(bm, 5); !ok || si != 5 {
		t.Fatalf("from==bit: got %d,%v want 5,true", si, ok)
	}
	if si, ok := scanBitmapFrom(bm, 6); !ok || si != 5 {
		t.Fatalf("wrap: got %d,%v want 5,true", si, ok)
	}
	clearAll()
	set(127)
	if si, ok := scanBitmapFrom(bm, 64); !ok || si != 127 {
		t.Fatalf("second word: got %d,%v want 127,true", si, ok)
	}
	if si, ok := scanBitmapFrom(bm, 0); !ok || si != 127 {
		t.Fatalf("full scan: got %d,%v want 127,true", si, ok)
	}
	set(3)
	if si, ok := scanBitmapFrom(bm, 100); !ok || si != 127 {
		t.Fatalf("prefer at-or-after cursor: got %d,%v want 127,true", si, ok)
	}
	if si, ok := scanBitmapFrom(bm, 4); !ok || si != 127 {
		t.Fatalf("skip below-cursor bit: got %d,%v want 127,true", si, ok)
	}
}
