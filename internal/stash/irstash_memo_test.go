package stash

import (
	"crypto/md5"
	"encoding/binary"
	"testing"

	"iroram/internal/block"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// md5Set is the reference S-Stash set index of Section IV-C, hashed from
// scratch on every call: MD5 of the little-endian address, the digest's low
// 8 bytes modulo the set count.
func md5Set(addr block.ID, sets int) int {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(addr))
	sum := md5.Sum(buf[:])
	return int(binary.LittleEndian.Uint64(sum[:8]) % uint64(sets))
}

// memoSlotMates returns n addresses, none of them block.Invalid, that share
// target's memo slot, so looking them up in turn evicts each other.
func memoSlotMates(target block.ID, n int) []block.ID {
	slot := mix64(target) & (setMemoSlots - 1)
	var out []block.ID
	for a := block.ID(0); len(out) < n; a++ {
		if a != target && mix64(a)&(setMemoSlots-1) == slot {
			out = append(out, a)
		}
	}
	return out
}

// checkMemo verifies that every memo slot holds an address that belongs
// there, paired with that address's true MD5 set.
func checkMemo(t *testing.T, s *IRStash) {
	t.Helper()
	for i, k := range s.memoKey {
		if k != block.Invalid && mix64(k)&(setMemoSlots-1) != uint64(i) {
			t.Fatalf("memo slot %d holds %v, whose slot is %d", i, k, mix64(k)&(setMemoSlots-1))
		}
		if want := md5Set(k, s.sets); int(s.memoSet[i]) != want {
			t.Fatalf("memo slot %d: %v -> set %d, MD5 gives %d", i, k, s.memoSet[i], want)
		}
	}
}

// TestIRStashSetOfMatchesMD5 is the differential oracle for the memoized set
// index: over random, memo-colliding and block.Invalid-adjacent addresses,
// setOf must always equal the from-scratch MD5 set, in whatever order the
// memo sees them.
func TestIRStashSetOfMatchesMD5(t *testing.T) {
	s := NewIRStash(testLevels, testTop, topZ(), 4)
	edge := []block.ID{block.Invalid, block.Invalid - 1, block.Invalid - 2, 0, 1, 1 << 63}
	groups := [][]block.ID{
		edge,
		memoSlotMates(block.Invalid, 4), // evict the prefilled Invalid entry
		memoSlotMates(12345, 6),
	}
	r := rng.New(11)
	for op := 0; op < 100000; op++ {
		var a block.ID
		switch r.Uint64n(4) {
		case 0:
			a = block.ID(r.Uint64())
		case 1:
			a = block.ID(r.Uint64n(8192))
		default:
			g := groups[r.Uint64n(uint64(len(groups)))]
			a = g[r.Uint64n(uint64(len(g)))]
		}
		if got, want := s.setOf(a), md5Set(a, s.sets); got != want {
			t.Fatalf("op %d: setOf(%v) = %d, MD5 gives %d", op, a, got, want)
		}
	}
	checkMemo(t, s)
}

// TestIRStashMemoDifferential runs interleaved Fill, LookupByAddr, Remove,
// ReadPath and ReadPathEach against a model that
// places blocks by the reference MD5 set: every Fill outcome, conflict
// count, lookup and removal must match, and placed blocks must sit in their
// MD5 set. After every op, a Find hit must imply a LookupByAddr hit (the
// reason ServeOnChip skips the tree-top walk under IR-Stash), and every
// set's free-way count must equal a recount of its invalid ways.
func TestIRStashMemoDifferential(t *testing.T) {
	for _, ways := range []int{1, 4} {
		s := NewIRStash(testLevels, testTop, topZ(), ways)
		type resident struct {
			leaf block.Leaf
			node int
		}
		model := map[block.ID]resident{}
		setCount := make([]int, s.sets)
		bucketCount := map[int]int{}
		var conflicts uint64

		mates := memoSlotMates(block.Invalid-1, 6)
		pool := func(r *rng.Source) block.ID {
			switch r.Uint64n(4) {
			case 0:
				return block.ID(r.Uint64n(1 << 40))
			case 1:
				return mates[r.Uint64n(uint64(len(mates)))]
			case 2:
				return block.Invalid - 1 - block.ID(r.Uint64n(4))
			default:
				return block.ID(r.Uint64n(512))
			}
		}
		r := rng.New(uint64(20 + ways))
		leaves := uint64(1) << (testLevels - 1)
		// probeLeaf is a's own leaf while a is stored, else a fixed leaf
		// derived from a, so probes draw nothing from r.
		probeLeaf := func(a block.ID) block.Leaf {
			if m, ok := model[a]; ok {
				return m.leaf
			}
			return block.Leaf(uint64(a) % leaves)
		}
		for op := 0; op < 100000; op++ {
			a := pool(r)
			switch k := r.Uint64n(10); {
			case k < 5: // Fill
				if _, ok := model[a]; ok {
					break // the controller never stores a block twice
				}
				leaf := block.Leaf(r.Uint64n(leaves))
				level := int(r.Uint64n(testTop))
				n := s.node(level, leaf)
				set := md5Set(a, s.sets)
				want := bucketCount[n] < s.z[level] && setCount[set] < ways
				if setCount[set] == ways {
					conflicts++
				}
				if got := s.Fill(level, leaf, tree.Entry{Addr: a, Leaf: leaf}); got != want {
					t.Fatalf("ways %d op %d: Fill(%v) = %v, model %v", ways, op, a, got, want)
				}
				if want {
					model[a] = resident{leaf, n}
					setCount[set]++
					bucketCount[n]++
				}
			case k < 7: // LookupByAddr
				leaf, ok := s.LookupByAddr(a)
				m, want := model[a]
				if ok != want || (ok && leaf != m.leaf) {
					t.Fatalf("ways %d op %d: LookupByAddr(%v) = %d,%v, model %d,%v",
						ways, op, a, leaf, ok, m.leaf, want)
				}
			case k < 9: // Remove on the block's own path
				m, want := model[a]
				if got := s.Remove(a, probeLeaf(a)); got != want {
					t.Fatalf("ways %d op %d: removing %v = %v, model %v", ways, op, a, got, want)
				}
				if want {
					delete(model, a)
					setCount[md5Set(a, s.sets)]--
					bucketCount[m.node]--
				}
			default: // drain one path, as the read phase does
				leaf := block.Leaf(r.Uint64n(leaves))
				drain := func(e tree.Entry, _ int) {
					m, ok := model[e.Addr]
					if !ok || m.leaf != e.Leaf {
						t.Fatalf("ways %d op %d: path read returned unknown %v", ways, op, e)
					}
					delete(model, e.Addr)
					setCount[md5Set(e.Addr, s.sets)]--
					bucketCount[m.node]--
				}
				if op%2 == 0 {
					for _, e := range s.ReadPath(leaf, nil) {
						drain(e, 0)
					}
				} else {
					s.ReadPathEach(leaf, drain)
				}
			}
			if got, want := s.setOf(a), md5Set(a, s.sets); got != want {
				t.Fatalf("ways %d op %d: setOf(%v) = %d, MD5 gives %d", ways, op, a, got, want)
			}
			if _, hit := s.Find(a, probeLeaf(a)); hit {
				if _, ok := s.LookupByAddr(a); !ok {
					t.Fatalf("ways %d op %d: Find hits %v, LookupByAddr misses", ways, op, a)
				}
			}
			for set := 0; set < s.sets; set++ {
				invalid := 0
				for w := 0; w < ways; w++ {
					if !s.slots[set*ways+w].valid {
						invalid++
					}
				}
				if int(s.free[set]) != invalid {
					t.Fatalf("ways %d op %d: set %d counts %d free ways, holds %d invalid",
						ways, op, set, s.free[set], invalid)
				}
			}
		}
		if s.Conflicts != conflicts || conflicts == 0 {
			t.Errorf("ways %d: Conflicts = %d, model %d (must be > 0)", ways, s.Conflicts, conflicts)
		}
		if s.Len() != len(model) {
			t.Errorf("ways %d: Len = %d, model %d", ways, s.Len(), len(model))
		}
		for i, sl := range s.slots {
			if sl.valid && i/ways != md5Set(sl.addr, s.sets) {
				t.Fatalf("ways %d: %v in set %d, MD5 gives %d", ways, sl.addr, i/ways, md5Set(sl.addr, s.sets))
			}
		}
		checkMemo(t, s)
	}
}
