// Package cache implements the set-associative write-back caches of the
// simulated system: the LLC in front of the ORAM controller and the PLB
// (PosMap lookaside buffer). There is no L1: the traces are L1-miss
// streams.
// It also provides the dirty-LRU scanner that IR-DWB's Ptr register walks
// (Section IV-D of the paper).
package cache

import "fmt"

// Line is the externally visible state of one cache line.
type Line struct {
	Addr  uint64
	Valid bool
	Dirty bool
}

type way struct {
	addr  uint64
	valid bool
	dirty bool
	stamp uint64 // larger = more recently used
}

// Cache is a set-associative cache with true-LRU replacement, keyed by block
// address (block units, not bytes).
type Cache struct {
	sets  int
	ways  int
	lines []way // sets*ways, row-major by set
	clock uint64
	// mask is sets-1 when sets is a power of two (validated at New), so
	// setOf is a single AND on the hot path; 0 selects the modulo fallback
	// for exotic geometries.
	mask uint64
	// lruSummary / dirtySummary are per-set predicate bitmaps for the
	// IR-DWB scanner: bit si of lruSummary is set iff set si is full (has
	// an LRU victim candidate), bit si of dirtySummary iff additionally
	// that LRU line is dirty. They are allocated lazily by
	// EnableLRUTracking (scanner attach) and refreshed by every mutator,
	// turning the scanner's O(sets) sweep into a word-wise bit scan.
	lruSummary   []uint64
	dirtySummary []uint64
	// Stats
	hits, misses, evictions, dirtyEvictions uint64
}

// New builds a cache with the given geometry. It panics on non-positive
// geometry; callers validate configs up front. Power-of-two set counts
// (every preset geometry) get mask-based set indexing.
func New(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("cache: invalid geometry %dx%d", sets, ways))
	}
	c := &Cache{sets: sets, ways: ways, lines: make([]way, sets*ways)}
	if sets&(sets-1) == 0 {
		c.mask = uint64(sets - 1)
	}
	return c
}

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.ways }

func (c *Cache) setOf(addr uint64) int {
	if c.mask != 0 {
		return int(addr & c.mask)
	}
	return int(addr % uint64(c.sets))
}

func (c *Cache) set(idx int) []way { return c.lines[idx*c.ways : (idx+1)*c.ways] }

func (c *Cache) findIn(si int, addr uint64) *way {
	for s, i := c.set(si), 0; i < len(s); i++ {
		if s[i].valid && s[i].addr == addr {
			return &s[i]
		}
	}
	return nil
}

func (c *Cache) find(addr uint64) *way {
	return c.findIn(c.setOf(addr), addr)
}

// EnableLRUTracking allocates and fills the per-set summary bitmaps the
// DWB scanner consumes. Scanner constructors call it; plain caches (PLB,
// non-DWB LLCs) never pay the per-mutation refresh.
func (c *Cache) EnableLRUTracking() {
	if c.lruSummary != nil {
		return
	}
	words := (c.sets + 63) / 64
	c.lruSummary = make([]uint64, words)
	c.dirtySummary = make([]uint64, words)
	for si := 0; si < c.sets; si++ {
		c.refreshSummary(si)
	}
}

// refreshSummary recomputes set si's two summary bits after a mutation.
// One O(ways) pass — over the same lines the mutation just touched — keeps
// the bitmaps exact, which is what lets FindCandidate trust a set bit
// without re-deriving the predicate.
func (c *Cache) refreshSummary(si int) {
	if c.lruSummary == nil {
		return
	}
	s := c.set(si)
	vi := 0
	full := true
	for i := range s {
		if !s[i].valid {
			full = false
			break
		}
		if s[i].stamp < s[vi].stamp {
			vi = i
		}
	}
	w, bit := si>>6, uint64(1)<<uint(si&63)
	if !full {
		c.lruSummary[w] &^= bit
		c.dirtySummary[w] &^= bit
		return
	}
	c.lruSummary[w] |= bit
	if s[vi].dirty {
		c.dirtySummary[w] |= bit
	} else {
		c.dirtySummary[w] &^= bit
	}
}

// Access looks up addr, updating recency and the dirty bit on a write hit.
// It returns whether the line was present.
func (c *Cache) Access(addr uint64, write bool) bool {
	c.clock++
	si := c.setOf(addr)
	if w := c.findIn(si, addr); w != nil {
		w.stamp = c.clock
		if write {
			w.dirty = true
		}
		c.hits++
		c.refreshSummary(si)
		return true
	}
	c.misses++
	return false
}

// Contains reports presence without touching recency or stats.
func (c *Cache) Contains(addr uint64) bool { return c.find(addr) != nil }

// EachValid calls fn for every valid line, in set and way order, without
// touching recency or stats.
func (c *Cache) EachValid(fn func(Line)) {
	for _, w := range c.lines {
		if w.valid {
			fn(Line{Addr: w.addr, Valid: true, Dirty: w.dirty})
		}
	}
}

// IsDirty reports whether the line is present and dirty, without side
// effects.
func (c *Cache) IsDirty(addr uint64) bool {
	w := c.find(addr)
	return w != nil && w.dirty
}

// Insert fills addr (allocating on a miss path). It returns the victim line
// if a valid line had to be evicted. Inserting an already-present address
// just updates its state.
func (c *Cache) Insert(addr uint64, dirty bool) (victim Line) {
	c.clock++
	si := c.setOf(addr)
	if w := c.findIn(si, addr); w != nil {
		w.stamp = c.clock
		if dirty {
			w.dirty = true
		}
		c.refreshSummary(si)
		return Line{}
	}
	s := c.set(si)
	vi := 0
	for i := 1; i < len(s); i++ {
		if !s[i].valid {
			vi = i
			break
		}
		if !s[vi].valid {
			break
		}
		if s[i].stamp < s[vi].stamp {
			vi = i
		}
	}
	if !s[0].valid {
		vi = 0
	}
	if s[vi].valid {
		victim = Line{Addr: s[vi].addr, Valid: true, Dirty: s[vi].dirty}
		c.evictions++
		if s[vi].dirty {
			c.dirtyEvictions++
		}
	}
	s[vi] = way{addr: addr, valid: true, dirty: dirty, stamp: c.clock}
	c.refreshSummary(si)
	return victim
}

// Invalidate drops addr if present and returns its previous state.
func (c *Cache) Invalidate(addr uint64) (was Line) {
	si := c.setOf(addr)
	if w := c.findIn(si, addr); w != nil {
		was = Line{Addr: w.addr, Valid: true, Dirty: w.dirty}
		*w = way{}
		c.refreshSummary(si)
	}
	return was
}

// MarkDirty sets the dirty bit of a present line; it reports whether the
// line was found.
func (c *Cache) MarkDirty(addr uint64) bool {
	si := c.setOf(addr)
	if w := c.findIn(si, addr); w != nil {
		if !w.dirty {
			w.dirty = true
			c.refreshSummary(si)
		}
		return true
	}
	return false
}

// MarkClean clears the dirty bit of a present line (IR-DWB's final step);
// it reports whether the line was found.
func (c *Cache) MarkClean(addr uint64) bool {
	si := c.setOf(addr)
	if w := c.findIn(si, addr); w != nil {
		if w.dirty {
			w.dirty = false
			c.refreshSummary(si)
		}
		return true
	}
	return false
}

// lruOf returns the LRU way index of set si, or -1 if the set has an
// invalid way (nothing to evict, so no LRU pressure).
func (c *Cache) lruOf(si int) int {
	s := c.set(si)
	vi := -1
	for i := range s {
		if !s[i].valid {
			return -1
		}
		if vi < 0 || s[i].stamp < s[vi].stamp {
			vi = i
		}
	}
	return vi
}

// DirtyLRU returns the address of set si's LRU line if that line is dirty.
// This is the predicate IR-DWB's Ptr register evaluates per set.
func (c *Cache) DirtyLRU(si int) (addr uint64, ok bool) {
	vi := c.lruOf(si)
	if vi < 0 {
		return 0, false
	}
	w := c.set(si)[vi]
	if !w.dirty {
		return 0, false
	}
	return w.addr, true
}

// LRU returns the address of set si's LRU line regardless of dirtiness —
// the candidate predicate of the proactive-remapping extension (Section
// IV-D future work), where under LLC-D every eviction needs PosMap work.
func (c *Cache) LRU(si int) (addr uint64, ok bool) {
	vi := c.lruOf(si)
	if vi < 0 {
		return 0, false
	}
	return c.set(si)[vi].addr, true
}

// IsLRU reports whether addr is still the LRU line of its (full) set.
func (c *Cache) IsLRU(addr uint64) bool {
	vi := c.lruOf(c.setOf(addr))
	return vi >= 0 && c.set(c.setOf(addr))[vi].addr == addr
}

// IsDirtyLRU reports whether addr is still the dirty LRU line of its set —
// the abort condition of an in-flight IR-DWB early write-back.
func (c *Cache) IsDirtyLRU(addr uint64) bool {
	si := c.setOf(addr)
	vi := c.lruOf(si)
	if vi < 0 {
		return false
	}
	w := c.set(si)[vi]
	return w.addr == addr && w.dirty
}

// Stats are hit/miss/eviction counters.
type Stats struct {
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats {
	return Stats{Hits: c.hits, Misses: c.misses,
		Evictions: c.evictions, DirtyEvictions: c.dirtyEvictions}
}

// MissRate returns misses / (hits+misses), or 0 when idle.
func (s Stats) MissRate() float64 {
	t := s.Hits + s.Misses
	if t == 0 {
		return 0
	}
	return float64(s.Misses) / float64(t)
}
