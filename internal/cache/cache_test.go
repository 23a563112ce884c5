package cache

import (
	"testing"
	"testing/quick"

	"iroram/internal/rng"
)

func TestMissThenHit(t *testing.T) {
	c := New(4, 2)
	if c.Access(42, false) {
		t.Fatal("cold cache should miss")
	}
	c.Insert(42, false)
	if !c.Access(42, false) {
		t.Fatal("should hit after insert")
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", s)
	}
}

func TestWriteHitSetsDirty(t *testing.T) {
	c := New(4, 2)
	c.Insert(42, false)
	c.Access(42, true)
	if !isDirty(c, 42) {
		t.Error("write hit should dirty the line")
	}
}

func TestLRUEviction(t *testing.T) {
	c := New(1, 2)
	c.Insert(1, false)
	c.Insert(2, false)
	c.Access(1, false) // make 2 the LRU
	v := c.Insert(3, true)
	if !v.Valid || v.Addr != 2 {
		t.Errorf("victim %+v, want addr 2", v)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Error("post-eviction contents wrong")
	}
}

func TestDirtyVictimReported(t *testing.T) {
	c := New(1, 1)
	c.Insert(1, true)
	v := c.Insert(2, false)
	if !v.Valid || !v.Dirty || v.Addr != 1 {
		t.Errorf("victim %+v, want dirty addr 1", v)
	}
	s := c.Stats()
	if s.Evictions != 1 || s.DirtyEvictions != 1 {
		t.Errorf("stats %+v", s)
	}
}

func TestInsertExistingUpdates(t *testing.T) {
	c := New(1, 2)
	c.Insert(1, false)
	v := c.Insert(1, true)
	if v.Valid {
		t.Error("re-insert should not evict")
	}
	if !isDirty(c, 1) {
		t.Error("re-insert with dirty should set dirty bit")
	}
	if valid, _ := lineCounts(c); valid != 1 {
		t.Errorf("occupancy %d, want 1", valid)
	}
}

func TestMarkCleanDirty(t *testing.T) {
	c := New(2, 2)
	c.Insert(7, true)
	if !c.MarkClean(7) || isDirty(c, 7) {
		t.Error("MarkClean failed")
	}
	if !c.MarkDirty(7) || !isDirty(c, 7) {
		t.Error("MarkDirty failed")
	}
	if c.MarkClean(999) || c.MarkDirty(999) {
		t.Error("marking absent lines should report false")
	}
}

func TestDirtyLRU(t *testing.T) {
	c := New(1, 2)
	if _, ok := c.DirtyLRU(0); ok {
		t.Error("set with invalid ways should have no dirty LRU")
	}
	c.Insert(1, true)
	c.Insert(2, false)
	// Set full; LRU is 1 and dirty.
	addr, ok := c.DirtyLRU(0)
	if !ok || addr != 1 {
		t.Errorf("DirtyLRU = %d,%v, want 1,true", addr, ok)
	}
	if !c.IsDirtyLRU(1) || c.IsDirtyLRU(2) {
		t.Error("IsDirtyLRU predicates wrong")
	}
	c.Access(1, false) // now 2 is LRU but clean
	if _, ok := c.DirtyLRU(0); ok {
		t.Error("clean LRU should not be a candidate")
	}
}

// isDirty reports whether addr is resident and dirty, reading the line
// without touching recency or stats.
func isDirty(c *Cache, addr uint64) bool {
	w := c.find(addr)
	return w != nil && w.dirty
}

// lineCounts counts the valid and the dirty lines of c.
func lineCounts(c *Cache) (valid, dirty int) {
	c.EachValid(func(l Line) {
		valid++
		if l.Dirty {
			dirty++
		}
	})
	return valid, dirty
}

func TestOccupancyAndDirtyCount(t *testing.T) {
	c := New(4, 2)
	c.Insert(0, true)
	c.Insert(1, false)
	c.Insert(2, true)
	if valid, dirty := lineCounts(c); valid != 3 || dirty != 2 {
		t.Errorf("occupancy/dirty = %d/%d, want 3/2", valid, dirty)
	}
}

// TestEachValidVisitsResidentLines checks the line walk against Contains
// and each line's dirty bit after random inserts and evictions: it visits
// each resident line once, and every address Contains reports.
func TestEachValidVisitsResidentLines(t *testing.T) {
	c := New(8, 4)
	r := rng.New(3)
	for i := 0; i < 500; i++ {
		c.Insert(r.Uint64n(100), r.Float64() < 0.5)
	}
	seen := map[uint64]bool{}
	c.EachValid(func(l Line) {
		if !l.Valid || seen[l.Addr] || !c.Contains(l.Addr) || isDirty(c, l.Addr) != l.Dirty {
			t.Fatalf("EachValid gave %+v (seen before: %v)", l, seen[l.Addr])
		}
		seen[l.Addr] = true
	})
	resident := 0
	for a := uint64(0); a < 100; a++ {
		if c.Contains(a) {
			resident++
		}
	}
	if len(seen) != resident {
		t.Fatalf("EachValid visited %d lines, Contains reports %d", len(seen), resident)
	}
}

func TestMissRate(t *testing.T) {
	if (Stats{}).MissRate() != 0 {
		t.Error("idle MissRate should be 0")
	}
	s := Stats{Hits: 3, Misses: 1}
	if s.MissRate() != 0.25 {
		t.Errorf("MissRate = %v, want 0.25", s.MissRate())
	}
}

// TestOccupancyNeverExceedsCapacity is the basic capacity invariant under
// random workloads: every address Contains reports holds its own line, so
// the resident addresses never outnumber the 32 lines.
func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	check := func(seed uint64) bool {
		r := rng.New(seed)
		c := New(8, 4)
		for i := 0; i < 500; i++ {
			a := r.Uint64n(256)
			if !c.Access(a, r.Float64() < 0.5) {
				c.Insert(a, r.Float64() < 0.5)
			}
		}
		resident := 0
		for a := uint64(0); a < 256; a++ {
			if c.Contains(a) {
				resident++
			}
		}
		valid, _ := lineCounts(c)
		return resident == valid && valid <= 8*4
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

// TestInclusionAfterInsert: an inserted line stays resident until evicted or
// invalidated, and each insert evicts at most one line.
func TestInclusionAfterInsert(t *testing.T) {
	r := rng.New(3)
	c := New(16, 4)
	resident := map[uint64]bool{}
	for i := 0; i < 2000; i++ {
		a := r.Uint64n(1024)
		if c.Access(a, false) {
			if !resident[a] {
				t.Fatal("hit on a line the model says is absent")
			}
			continue
		}
		if resident[a] {
			t.Fatal("miss on a line the model says is resident")
		}
		v := c.Insert(a, false)
		resident[a] = true
		if v.Valid {
			if !resident[v.Addr] {
				t.Fatal("evicted a non-resident line")
			}
			delete(resident, v.Addr)
		}
	}
	if valid, _ := lineCounts(c); len(resident) != valid {
		t.Fatalf("model %d lines vs cache %d", len(resident), valid)
	}
}

func TestDWBScannerFindsDirtyLRU(t *testing.T) {
	c := New(4, 2)
	r := rng.New(1)
	s := NewDWBScanner(c, func() int { return r.Intn(4) })
	// Fill set 2 with a dirty LRU.
	c.Insert(2, true)  // set 2
	c.Insert(6, false) // set 2, second way; LRU = 2 (dirty)
	addr, ok := s.FindCandidate(0)
	if !ok || addr != 2 {
		t.Fatalf("FindCandidate = %d,%v want 2,true", addr, ok)
	}
	if s.Found != 1 {
		t.Errorf("Found = %d", s.Found)
	}
}

func TestDWBScannerSkipsPartialSets(t *testing.T) {
	c := New(4, 2)
	r := rng.New(1)
	s := NewDWBScanner(c, func() int { return r.Intn(4) })
	c.Insert(2, true) // set 2 has a free way: no LRU pressure
	if _, ok := s.FindCandidate(0); ok {
		t.Error("sets with free ways should not yield candidates")
	}
}

func TestDWBScannerPausesAfterEmptySweep(t *testing.T) {
	c := New(4, 2)
	r := rng.New(1)
	s := NewDWBScanner(c, func() int { return r.Intn(4) })
	if _, ok := s.FindCandidate(0); ok {
		t.Fatal("empty cache should yield no candidate")
	}
	if s.EmptySweeps != 1 {
		t.Fatalf("EmptySweeps = %d", s.EmptySweeps)
	}
	// Even with a candidate now present, the scanner stays paused.
	c.Insert(0, true)
	c.Insert(4, false)
	if _, ok := s.FindCandidate(500); ok {
		t.Error("scanner should be paused")
	}
	if _, ok := s.FindCandidate(1001); !ok {
		t.Error("scanner should resume after the pause window")
	}
}

func TestDWBScannerRoundRobin(t *testing.T) {
	c := New(4, 1)
	r := rng.New(1)
	s := NewDWBScanner(c, func() int { return r.Intn(4) })
	// Single-way sets: every valid dirty line is its set's LRU.
	for a := uint64(0); a < 4; a++ {
		c.Insert(a, true)
	}
	seen := map[uint64]bool{}
	for i := 0; i < 4; i++ {
		addr, ok := s.FindCandidate(0)
		if !ok {
			t.Fatalf("candidate %d missing", i)
		}
		seen[addr] = true
	}
	if len(seen) != 4 {
		t.Errorf("round-robin visited %d/4 distinct sets", len(seen))
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0, 4)
}
