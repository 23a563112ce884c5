package stash

import (
	"slices"
	"testing"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// indexedFStash is the F-Stash as it was before the membership bitmap:
// the same items slice, order and swap-with-last removal, with a map from
// address to storage slot as the index. It is the reference the
// bitmap-indexed FStash is checked against.
type indexedFStash struct {
	items []tree.Entry
	index map[block.ID]int
}

func newIndexedFStash() *indexedFStash {
	return &indexedFStash{index: map[block.ID]int{}}
}

func (s *indexedFStash) Len() int { return len(s.items) }

func (s *indexedFStash) Insert(e tree.Entry) {
	if i, ok := s.index[e.Addr]; ok {
		s.items[i] = e
		return
	}
	s.index[e.Addr] = len(s.items)
	s.items = append(s.items, e)
}

func (s *indexedFStash) Lookup(addr block.ID) (block.Leaf, bool) {
	if i, ok := s.index[addr]; ok {
		return s.items[i].Leaf, true
	}
	return block.NoLeaf, false
}

func (s *indexedFStash) Remove(addr block.ID) bool {
	i, ok := s.index[addr]
	if !ok {
		return false
	}
	s.removeAt(i)
	return true
}

func (s *indexedFStash) removeAt(i int) {
	addr := s.items[i].Addr
	last := len(s.items) - 1
	if i != last {
		s.items[i] = s.items[last]
		s.index[s.items[i].Addr] = i
	}
	s.items = s.items[:last]
	delete(s.index, addr)
}

func (s *indexedFStash) Each(fn func(tree.Entry)) {
	for _, e := range s.items {
		fn(e)
	}
}

func (s *indexedFStash) DrainForPath(leaf block.Leaf, levels int, perLevel [][]tree.Entry, extra []tree.Entry) {
	n := len(s.items)
	first := 0
	if n > 0 {
		drainVisit(leaf, levels, perLevel, s.items[0])
	} else if len(extra) > 0 {
		drainVisit(leaf, levels, perLevel, extra[0])
		first = 1
	}
	for i := len(extra) - 1; i >= first; i-- {
		drainVisit(leaf, levels, perLevel, extra[i])
	}
	for i := n - 1; i >= 1; i-- {
		drainVisit(leaf, levels, perLevel, s.items[i])
	}
	clear(s.index)
	s.items = s.items[:0]
}

// The F-Stash operations the differential test and FuzzFStash decode.
const (
	fsInsert        = iota // a block of the universe, stashed or not
	fsInsertStashed        // a duplicate insert of a stashed block
	fsLookup
	fsRemove
	fsDrain
	numFSOps
)

const (
	fsUniverse = 200 // block IDs; small enough that stashed IDs recur
	fsLevels   = 6   // 32 leaves
)

// fstashPair runs the bitmap-indexed FStash and the indexed reference in
// lockstep through one decoded operation sequence.
type fstashPair struct {
	got       *FStash
	want      *indexedFStash
	gotLists  [][]tree.Entry
	wantLists [][]tree.Entry
	extra     []tree.Entry
}

func newFStashPair() *fstashPair {
	return &fstashPair{
		got:       NewFStash(fsUniverse),
		want:      newIndexedFStash(),
		gotLists:  make([][]tree.Entry, fsLevels),
		wantLists: make([][]tree.Entry, fsLevels),
	}
}

// step applies operation op, with operands decoded from x and y, to both
// stashes and compares every result, then the full observable state: Len,
// the Each order, the lookup of every block of the universe, and the
// bitmap's own consistency check.
func (p *fstashPair) step(t testing.TB, op int, x, y uint64) {
	t.Helper()
	id := block.ID(x % fsUniverse)
	leaf := block.Leaf(y % (1 << (fsLevels - 1)))
	switch op {
	case fsInsert, fsInsertStashed:
		if n := p.want.Len(); op == fsInsertStashed && n > 0 {
			id = p.want.items[x%uint64(n)].Addr
		}
		p.got.Insert(tree.Entry{Addr: id, Leaf: leaf})
		p.want.Insert(tree.Entry{Addr: id, Leaf: leaf})
	case fsLookup:
		gl, gok := p.got.Lookup(id)
		wl, wok := p.want.Lookup(id)
		if gl != wl || gok != wok {
			t.Fatalf("Lookup(%v) = %d,%v, reference %d,%v", id, gl, gok, wl, wok)
		}
	case fsRemove:
		if g, w := p.got.Remove(id), p.want.Remove(id); g != w {
			t.Fatalf("Remove(%v) = %v, reference %v", id, g, w)
		}
	case fsDrain:
		// Up to 8 never-stashed extras from id upward, each flagged by a
		// bit of x the way the gather walk flags what it pulled off the
		// path.
		p.extra = p.extra[:0]
		for k, a := 0, id; k < 64 && len(p.extra) < int(y%9); k, a = k+1, (a+1)%fsUniverse {
			if _, stashed := p.want.Lookup(a); stashed || slices.ContainsFunc(p.extra,
				func(e tree.Entry) bool { return e.Addr == a }) {
				continue
			}
			e := tree.Entry{Addr: a, Leaf: block.Leaf((y*31 + uint64(k)*17) % (1 << (fsLevels - 1)))}
			if x>>len(p.extra)&1 != 0 {
				e.Leaf |= tree.GatherFlag
			}
			p.extra = append(p.extra, e)
		}
		for l := range p.gotLists {
			p.gotLists[l], p.wantLists[l] = p.gotLists[l][:0], p.wantLists[l][:0]
		}
		p.got.DrainForPath(leaf, fsLevels, p.gotLists, p.extra)
		p.want.DrainForPath(leaf, fsLevels, p.wantLists, p.extra)
		for l := range p.gotLists {
			if !slices.Equal(p.gotLists[l], p.wantLists[l]) {
				t.Fatalf("DrainForPath(%d) level %d: %v, reference %v", leaf, l, p.gotLists[l], p.wantLists[l])
			}
		}
	}
	if p.got.Len() != p.want.Len() {
		t.Fatalf("Len %d, reference %d", p.got.Len(), p.want.Len())
	}
	if !slices.Equal(p.got.items, p.want.items) {
		t.Fatalf("Each order %v, reference %v", p.got.items, p.want.items)
	}
	for a := block.ID(0); a < fsUniverse; a++ {
		gl, gok := p.got.Lookup(a)
		wl, wok := p.want.Lookup(a)
		if gl != wl || gok != wok {
			t.Fatalf("Lookup(%v) = %d,%v, reference %d,%v", a, gl, gok, wl, wok)
		}
	}
	if err := p.got.CheckMembership(); err != nil {
		t.Fatal(err)
	}
}

// TestFStashMatchesIndexedReference drives the bitmap-indexed FStash and
// the map-indexed reference through long random operation streams
// over a 200-block universe. Inserts outnumber removals between the
// occasional full drain, so the stash holds tens of blocks, every lookup
// of a stashed block scans, and duplicate inserts and removals hit
// blocks in every storage slot.
func TestFStashMatchesIndexedReference(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		r := rng.New(seed)
		p := newFStashPair()
		peak := 0
		for i := 0; i < 20000; i++ {
			var op int
			switch u := r.Uint64n(83); {
			case u < 40:
				op = fsInsert
			case u < 50:
				op = fsInsertStashed
			case u < 65:
				op = fsLookup
			case u < 80:
				op = fsRemove
			default:
				op = fsDrain
			}
			p.step(t, op, r.Uint64(), r.Uint64())
			peak = max(peak, p.want.Len())
		}
		if peak < 20 {
			t.Fatalf("seed %d: the stash never held more than %d blocks", seed, peak)
		}
	}
}

// maxFStashOps caps the operations one FuzzFStash input runs.
const maxFStashOps = 128

// FuzzFStash drives the bitmap-indexed FStash and the indexed reference
// through one operation sequence decoded from raw bytes: each byte triple
// is an operation (first byte mod numFSOps) and its two operands.
func FuzzFStash(f *testing.F) {
	f.Add([]byte{fsInsert, 1, 3, fsInsert, 2, 5, fsInsertStashed, 0, 7, fsLookup, 1, 0,
		fsDrain, 0xff, 4, fsLookup, 1, 0})
	f.Add([]byte{fsInsert, 9, 1, fsInsert, 10, 2, fsInsert, 11, 3, fsRemove, 9, 0,
		fsInsert, 9, 4, fsDrain, 0x55, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 3*maxFStashOps {
			data = data[:3*maxFStashOps]
		}
		p := newFStashPair()
		for i := 0; i+2 < len(data); i += 3 {
			p.step(t, int(data[i]%numFSOps), uint64(data[i+1]), uint64(data[i+2]))
		}
	})
}
