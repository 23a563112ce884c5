package tree

import (
	"math/bits"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
)

// scanBucket is one bucket of the oracle: a fixed slot array with per-slot
// validity flags — the pre-occupancy-word representation.
type scanBucket struct {
	live []bool
	ent  []Entry
}

// scanTree is the historical slot-scan tree retained as the differential
// oracle for the record layout's occupancy words: validity sentinels per slot,
// linear probes everywhere. Its contract is the one the bitmap code must
// reproduce bit for bit — fills claim the lowest free slot, walks and
// probes visit slots in ascending order — so every observable output
// (emission order included) must match Tree exactly.
type scanTree struct {
	levels, minLevel int
	z                []int
	buckets          [][]scanBucket // [level][bucketIndex]
}

func newScanTree(o config.ORAM, minLevel int) *scanTree {
	s := &scanTree{levels: o.Levels, minLevel: minLevel, z: o.Z}
	s.buckets = make([][]scanBucket, o.Levels)
	for l := minLevel; l < o.Levels; l++ {
		s.buckets[l] = make([]scanBucket, uint64(1)<<uint(l))
		for i := range s.buckets[l] {
			s.buckets[l][i] = scanBucket{
				live: make([]bool, o.Z[l]),
				ent:  make([]Entry, o.Z[l]),
			}
		}
	}
	return s
}

func (s *scanTree) bucket(level int, leaf block.Leaf) *scanBucket {
	return &s.buckets[level][uint64(leaf)>>(uint(s.levels-1)-uint(level))]
}

func (s *scanTree) readPathEach(leaf block.Leaf, visit func(Entry, int)) {
	for l := s.minLevel; l < s.levels; l++ {
		b := s.bucket(l, leaf)
		for i := range b.live {
			if b.live[i] {
				b.live[i] = false
				visit(b.ent[i], l)
			}
		}
	}
}

func (s *scanTree) fillBucket(level int, leaf block.Leaf, entries []Entry) {
	b := s.bucket(level, leaf)
	for _, e := range entries {
		placed := false
		for i := range b.live {
			if !b.live[i] {
				b.live[i] = true
				b.ent[i] = e
				placed = true
				break
			}
		}
		if !placed {
			panic("scanTree: bucket overflow")
		}
	}
}

func (s *scanTree) find(addr block.ID, leaf block.Leaf) (int, bool) {
	for l := s.minLevel; l < s.levels; l++ {
		b := s.bucket(l, leaf)
		for i := range b.live {
			if b.live[i] && b.ent[i].Addr == addr {
				return l, true
			}
		}
	}
	return 0, false
}

func (s *scanTree) remove(addr block.ID, leaf block.Leaf) (int, bool) {
	for l := s.minLevel; l < s.levels; l++ {
		b := s.bucket(l, leaf)
		for i := range b.live {
			if b.live[i] && b.ent[i].Addr == addr {
				b.live[i] = false
				return l, true
			}
		}
	}
	return 0, false
}

func (s *scanTree) place(e Entry) (int, bool) {
	for l := s.levels - 1; l >= s.minLevel; l-- {
		b := s.bucket(l, e.Leaf)
		for i := range b.live {
			if !b.live[i] {
				b.live[i] = true
				b.ent[i] = e
				return l, true
			}
		}
	}
	return 0, false
}

func (s *scanTree) freeAt(level int, leaf block.Leaf) int {
	b := s.bucket(level, leaf)
	n := 0
	for _, v := range b.live {
		if !v {
			n++
		}
	}
	return n
}

func (s *scanTree) occupied() uint64 {
	var n uint64
	for l := s.minLevel; l < s.levels; l++ {
		for i := range s.buckets[l] {
			for _, v := range s.buckets[l][i].live {
				if v {
					n++
				}
			}
		}
	}
	return n
}

// FreeAt returns the number of free slots in the bucket the path of leaf
// crosses at level: one popcount of the bucket's free mask. Only the
// differential test below needs it, to check the mask against the oracle's
// slot scan.
func (t *Tree) FreeAt(level int, leaf block.Leaf) int {
	return bits.OnesCount64(^t.rec[t.record(level, leaf)] & t.lv[level].mask)
}

// visitRec is one emitted (entry, level) observation for order comparison.
type visitRec struct {
	e Entry
	l int
}

// subtreeLeaf builds a uniformly random leaf whose path crosses the bucket
// that leaf's path crosses at level — the constraint FillBucket enforces.
func subtreeLeaf(r *rng.Source, leaf block.Leaf, level, levels int) block.Leaf {
	shift := uint(levels-1) - uint(level)
	base := (uint64(leaf) >> shift) << shift
	return block.Leaf(base | r.Uint64n(uint64(1)<<shift))
}

// TestOccupancyDifferential drives the record tree and the slot-scan oracle
// through a long randomized schedule of the full operation mix — path
// drains, per-level fills, probes, removals, deepest-first placements —
// asserting identical observable behavior after every step: emission
// sequences (order included), Find/Remove/Place results, free-slot counts
// and occupancy totals. Directed pressure phases push buckets to full
// (zero free mask) and drain paths twice in a row (the empty-bucket O(1)
// skip), the two edges where a bitmap bug would hide.
func TestOccupancyDifferential(t *testing.T) {
	o := tinyORAM()
	minLevel := o.TopLevels
	tr := New(o, minLevel)
	or := newScanTree(o, minLevel)
	r := rng.New(77)
	leaves := o.LeafCount()

	var got, want []visitRec
	var fill []Entry
	nextAddr := block.ID(1)

	checkPathDrain := func(leaf block.Leaf) {
		got, want = got[:0], want[:0]
		tr.ReadPathEach(leaf, func(e Entry, l int) { got = append(got, visitRec{e, l}) })
		or.readPathEach(leaf, func(e Entry, l int) { want = append(want, visitRec{e, l}) })
		if len(got) != len(want) {
			t.Fatalf("leaf %d: drained %d entries, oracle %d", leaf, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("leaf %d: emission %d = %+v, oracle %+v", leaf, i, got[i], want[i])
			}
		}
	}

	for i := 0; i < 4000; i++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		level := minLevel + int(r.Uint64n(uint64(o.Levels-minLevel)))
		switch op := r.Uint64n(100); {
		case op < 25:
			// Drain a path, then re-place a random subset deepest-first so
			// occupancy keeps churning instead of being restored verbatim.
			checkPathDrain(leaf)
			for _, v := range want {
				if r.Uint64n(8) == 0 {
					continue // drop ~1/8 of the drained blocks
				}
				gl, gok := tr.Place(v.e)
				wl, wok := or.place(v.e)
				if gl != wl || gok != wok {
					t.Fatalf("re-place %+v: (%d,%v), oracle (%d,%v)", v.e, gl, gok, wl, wok)
				}
			}
		case op < 30:
			// Empty-skip edge: drain the same path twice; the second walk
			// crosses only zero occupancy words and must emit nothing.
			checkPathDrain(leaf)
			checkPathDrain(leaf)
		case op < 55:
			// Fill one bucket toward (sometimes exactly to) capacity.
			n := int(r.Uint64n(uint64(o.Z[level]) + 1))
			if free := tr.FreeAt(level, leaf); n > free {
				n = free // exactly-full is reachable; overflow is a panic
			}
			fill = fill[:0]
			for k := 0; k < n; k++ {
				fill = append(fill, Entry{
					Addr: nextAddr,
					Leaf: subtreeLeaf(r, leaf, level, o.Levels),
				})
				nextAddr++
			}
			tr.FillBucket(level, leaf, fill)
			or.fillBucket(level, leaf, fill)
		case op < 75:
			// Probe then remove whatever the oracle says is on this path at
			// this level (or a guaranteed-absent address).
			addr := nextAddr + 1000 // absent
			if b := or.bucket(level, leaf); true {
				for s := range b.live {
					if b.live[s] {
						addr = b.ent[s].Addr
						break
					}
				}
			}
			gl, gok := tr.Find(addr, leaf)
			wl, wok := or.find(addr, leaf)
			if gl != wl || gok != wok {
				t.Fatalf("find %v on leaf %d: (%d,%v), oracle (%d,%v)", addr, leaf, gl, gok, wl, wok)
			}
			gl, gok = tr.Remove(addr, leaf)
			wl, wok = or.remove(addr, leaf)
			if gl != wl || gok != wok {
				t.Fatalf("remove %v on leaf %d: (%d,%v), oracle (%d,%v)", addr, leaf, gl, gok, wl, wok)
			}
		default:
			e := Entry{Addr: nextAddr, Leaf: leaf}
			nextAddr++
			gl, gok := tr.Place(e)
			wl, wok := or.place(e)
			if gl != wl || gok != wok {
				t.Fatalf("place %+v: (%d,%v), oracle (%d,%v)", e, gl, gok, wl, wok)
			}
		}
		if g, w := tr.FreeAt(level, leaf), or.freeAt(level, leaf); g != w {
			t.Fatalf("op %d: FreeAt(%d, %d) = %d, oracle %d", i, level, leaf, g, w)
		}
	}
	if g, w := tr.Occupied(), or.occupied(); g != w {
		t.Fatalf("Occupied = %d, oracle %d", g, w)
	}
	for l := minLevel; l < o.Levels; l++ {
		var w uint64
		for i := range or.buckets[l] {
			for _, v := range or.buckets[l][i].live {
				if v {
					w++
				}
			}
		}
		if g := tr.occupied[l]; g != w {
			t.Fatalf("occupied[%d] = %d, oracle %d", l, g, w)
		}
	}
}
