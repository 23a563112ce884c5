package stash

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// shadowTop is the historical per-node-slice tree-top cache retained as the
// differential oracle for the slot-array TopCache: dense per-node slices,
// appended by fills and compacted by swap-with-last removals, with Find and
// Remove scanning the path's nodes linearly. Its emission and compaction
// dynamics are the contract the slot arrays must reproduce exactly.
type shadowTop struct {
	topLevels, levels int
	z                 []int
	nodes             [][]tree.Entry // heap node -> live entries (dense)
}

func newShadowTop(levels, topLevels int, z []int) *shadowTop {
	return &shadowTop{
		topLevels: topLevels,
		levels:    levels,
		z:         z,
		nodes:     make([][]tree.Entry, 1<<uint(topLevels)),
	}
}

func (s *shadowTop) node(level int, leaf block.Leaf) int {
	return (1 << uint(level)) + int(uint64(leaf)>>(uint(s.levels-1)-uint(level)))
}

func (s *shadowTop) fill(level int, leaf block.Leaf, e tree.Entry) bool {
	n := s.node(level, leaf)
	if len(s.nodes[n]) >= s.z[level] {
		return false
	}
	s.nodes[n] = append(s.nodes[n], e)
	return true
}

func (s *shadowTop) readPathEach(leaf block.Leaf, visit func(tree.Entry, int)) {
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for _, e := range s.nodes[n] {
			visit(e, l)
		}
		s.nodes[n] = s.nodes[n][:0]
	}
}

func (s *shadowTop) find(addr block.ID, leaf block.Leaf) (int, bool) {
	for l := 0; l < s.topLevels; l++ {
		for _, e := range s.nodes[s.node(l, leaf)] {
			if e.Addr == addr {
				return l, true
			}
		}
	}
	return 0, false
}

func (s *shadowTop) remove(addr block.ID, leaf block.Leaf) bool {
	for l := 0; l < s.topLevels; l++ {
		n := s.node(l, leaf)
		for i, e := range s.nodes[n] {
			if e.Addr == addr {
				last := len(s.nodes[n]) - 1
				s.nodes[n][i] = s.nodes[n][last]
				s.nodes[n] = s.nodes[n][:last]
				return true
			}
		}
	}
	return false
}

func (s *shadowTop) lenAt(level int) uint64 {
	var n uint64
	for i := 0; i < 1<<uint(level); i++ {
		n += uint64(len(s.nodes[(1<<uint(level))+i]))
	}
	return n
}

// TestTopCacheDifferential churns the TopCache and the per-node-slice
// shadow through a randomized schedule of fills, path drains, probes and
// removals, asserting identical refusals, hits, emission order and
// occupancy after every step. The schedule is long relative to the tiny
// top's slot count, so every slot is filled, compacted and reused many
// times inside the run.
func TestTopCacheDifferential(t *testing.T) {
	o := config.Tiny().ORAM
	tc := NewTopCache(o.Levels, o.TopLevels, o.Z)
	sh := newShadowTop(o.Levels, o.TopLevels, o.Z)
	r := rng.New(99)
	leaves := o.LeafCount()
	nextAddr := block.ID(1)

	type rec struct {
		e tree.Entry
		l int
	}
	var got, want []rec
	for i := 0; i < 20000; i++ {
		leaf := block.Leaf(r.Uint64n(leaves))
		level := int(r.Uint64n(uint64(o.TopLevels)))
		switch op := r.Uint64n(100); {
		case op < 45:
			// Fill at a random top level; refusals must agree.
			e := tree.Entry{Addr: nextAddr, Leaf: subtreePathLeaf(r, leaf, level, o.Levels)}
			nextAddr++
			if g, w := tc.Fill(level, leaf, e), sh.fill(level, leaf, e); g != w {
				t.Fatalf("op %d: Fill(%d, %d, %+v) = %v, shadow %v", i, level, leaf, e, g, w)
			}
		case op < 60:
			// Drain the path; sequences must match element for element.
			got, want = got[:0], want[:0]
			tc.ReadPathEach(leaf, func(e tree.Entry, l int) { got = append(got, rec{e, l}) })
			sh.readPathEach(leaf, func(e tree.Entry, l int) { want = append(want, rec{e, l}) })
			if len(got) != len(want) {
				t.Fatalf("op %d: drained %d, shadow %d", i, len(got), len(want))
			}
			for k := range got {
				if got[k] != want[k] {
					t.Fatalf("op %d: emission %d = %+v, shadow %+v", i, k, got[k], want[k])
				}
			}
		default:
			// Probe and remove a resident (when the shadow has one on this
			// path) or an absent address; results must agree either way.
			addr := nextAddr + 1000
			if wl, ok := shadowAnyOnPath(sh, leaf); ok {
				addr = wl
			}
			gl, gok := tc.Find(addr, leaf)
			wl, wok := sh.find(addr, leaf)
			if gl != wl || gok != wok {
				t.Fatalf("op %d: Find(%v, %d) = (%d,%v), shadow (%d,%v)", i, addr, leaf, gl, gok, wl, wok)
			}
			if g, w := tc.Remove(addr, leaf), sh.remove(addr, leaf); g != w {
				t.Fatalf("op %d: Remove(%v, %d) = %v, shadow %v", i, addr, leaf, g, w)
			}
		}
		for l := 0; l < o.TopLevels; l++ {
			if g, w := tc.OccupiedAt(l), sh.lenAt(l); g != w {
				t.Fatalf("op %d: OccupiedAt(%d) = %d, shadow %d", i, l, g, w)
			}
		}
	}
	var total int
	for l := 0; l < o.TopLevels; l++ {
		total += int(sh.lenAt(l))
	}
	if g := tc.Len(); g != total {
		t.Fatalf("Len = %d, shadow %d", g, total)
	}
}

// subtreePathLeaf builds a random leaf in the same level-subtree as leaf —
// the placement constraint Fill enforces.
func subtreePathLeaf(r *rng.Source, leaf block.Leaf, level, levels int) block.Leaf {
	shift := uint(levels-1) - uint(level)
	base := (uint64(leaf) >> shift) << shift
	return block.Leaf(base | r.Uint64n(uint64(1)<<shift))
}

// shadowAnyOnPath returns some resident address on the path of leaf.
func shadowAnyOnPath(s *shadowTop, leaf block.Leaf) (block.ID, bool) {
	for l := 0; l < s.topLevels; l++ {
		if n := s.nodes[s.node(l, leaf)]; len(n) > 0 {
			return n[0].Addr, true
		}
	}
	return 0, false
}

// TestTopStoreEachWalksHeldBlocks fills both tree-top designs from random
// leaves, removes some blocks, and checks that Each visits Len() blocks,
// each once, each in the bucket its leaf's path crosses at its level, and
// that the walk changes nothing Find can see.
func TestTopStoreEachWalksHeldBlocks(t *testing.T) {
	o := config.Tiny().ORAM
	for _, top := range []TopStore{
		NewTopCache(o.Levels, o.TopLevels, o.Z),
		NewIRStash(o.Levels, o.TopLevels, o.Z, o.SStashWays),
	} {
		r := rng.New(11)
		var held []tree.Entry
		for id := block.ID(0); id < 400; id++ {
			e := tree.Entry{Addr: id, Leaf: block.Leaf(r.Uint64n(o.LeafCount()))}
			for l := o.TopLevels - 1; l >= 0; l-- {
				if top.Fill(l, e.Leaf, e) {
					held = append(held, e)
					break
				}
			}
		}
		for i := 0; i < len(held); i += 3 {
			if !top.Remove(held[i].Addr, held[i].Leaf) {
				t.Fatalf("%T: Remove(%v) failed", top, held[i].Addr)
			}
		}
		seen := map[block.ID]bool{}
		top.Each(func(e tree.Entry, level int, bucket uint64) {
			if seen[e.Addr] {
				t.Fatalf("%T: block %v visited twice", top, e.Addr)
			}
			seen[e.Addr] = true
			if uint64(e.Leaf)>>uint(o.Levels-1-level) != bucket {
				t.Fatalf("%T: block %v (leaf %d) visited in bucket %d of level %d", top, e.Addr, e.Leaf, bucket, level)
			}
			if l, ok := top.Find(e.Addr, e.Leaf); !ok || l != level {
				t.Fatalf("%T: Each put %v at level %d, Find says (%d, %v)", top, e.Addr, level, l, ok)
			}
		})
		if len(seen) != top.Len() || len(seen) == 0 {
			t.Fatalf("%T: Each visited %d blocks, Len is %d", top, len(seen), top.Len())
		}
		for i, e := range held {
			if _, ok := top.Find(e.Addr, e.Leaf); ok != (i%3 != 0) || seen[e.Addr] != ok {
				t.Fatalf("%T: block %v held %v, visited %v", top, e.Addr, ok, seen[e.Addr])
			}
		}
	}
}
