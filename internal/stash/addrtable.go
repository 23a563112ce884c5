package stash

import (
	"fmt"

	"iroram/internal/block"
)

// AddrTable maps block.ID -> uint32 with open addressing: a power-of-two
// slot array, linear probing, and backward-shift deletion (no tombstones).
// It is ρ's membership table (block -> small-tree leaf), consulted on every
// request: probe sequences are short contiguous array walks, lookups never
// hash more than once, and — unlike a Go map — a pre-sized table performs
// no steady-state allocation.
//
// The table stores no iteration order and exposes no iteration, so it
// cannot perturb recorded experiment output.
//
// block.Invalid is reserved as the empty-slot sentinel and must not be
// used as a key; Put panics on it.
type AddrTable struct {
	keys []block.ID // block.Invalid marks an empty slot
	vals []uint32
	mask uint64
	n    int
	grow int // occupancy that triggers doubling (load factor 13/16)
}

// minAddrTableSlots keeps degenerate capacity hints (0, tiny test stashes)
// from building tables too small to probe efficiently.
const minAddrTableSlots = 16

// NewAddrTable returns a table pre-sized so that `capacity` live entries
// stay at or below 50% load; it grows (by doubling) only if occupancy later
// exceeds the 13/16 load bound — the transient-overflow case.
func NewAddrTable(capacity int) *AddrTable {
	slots := minAddrTableSlots
	for slots < 2*capacity {
		slots <<= 1
	}
	t := &AddrTable{}
	t.init(slots)
	return t
}

func (t *AddrTable) init(slots int) {
	t.keys = make([]block.ID, slots)
	for i := range t.keys {
		t.keys[i] = block.Invalid
	}
	t.vals = make([]uint32, slots)
	t.mask = uint64(slots - 1)
	t.grow = slots * 13 / 16
	t.n = 0
}

// Len returns the number of live entries.
func (t *AddrTable) Len() int { return t.n }

// mix64 is the 64-bit finalizer mix (splitmix64) that indexes the package's
// hash tables (AddrTable, the IR-Stash set memo): masked to a power-of-two
// size, it spreads dense block IDs over the whole array.
func mix64(id block.ID) uint64 {
	x := uint64(id)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// slot returns the home slot of id.
func (t *AddrTable) slot(id block.ID) uint64 { return mix64(id) & t.mask }

// Get returns the value stored for id.
func (t *AddrTable) Get(id block.ID) (uint32, bool) {
	for i := t.slot(id); ; i = (i + 1) & t.mask {
		k := t.keys[i]
		if k == id {
			return t.vals[i], true
		}
		if k == block.Invalid {
			return 0, false
		}
	}
}

// Put inserts or updates id -> v. It checks the load bound only on
// reaching an empty slot, so an update of a present key never grows the
// table; an insert at the bound doubles it and re-probes.
func (t *AddrTable) Put(id block.ID, v uint32) {
	if id == block.Invalid {
		panic("stash: AddrTable key must not be block.Invalid")
	}
	for i := t.slot(id); ; i = (i + 1) & t.mask {
		k := t.keys[i]
		if k == id {
			t.vals[i] = v
			return
		}
		if k == block.Invalid {
			if t.n >= t.grow {
				t.rehash(len(t.keys) * 2)
				t.Put(id, v)
				return
			}
			t.keys[i] = id
			t.vals[i] = v
			t.n++
			return
		}
	}
}

// Delete removes id, reporting whether it was present. Removal back-shifts
// the probe chain into the vacated slot, so no tombstones accumulate and
// the Get invariant (probe until an empty slot) always holds.
func (t *AddrTable) Delete(id block.ID) bool {
	i := t.slot(id)
	for {
		k := t.keys[i]
		if k == block.Invalid {
			return false
		}
		if k == id {
			break
		}
		i = (i + 1) & t.mask
	}
	t.deleteAt(i)
	return true
}

// deleteAt vacates occupied slot i and back-shifts the probe chain after
// it: any entry whose home slot is NOT in the cyclic interval (i, j] may
// legally move into the hole.
func (t *AddrTable) deleteAt(i uint64) {
	j := i
	for {
		j = (j + 1) & t.mask
		k := t.keys[j]
		if k == block.Invalid {
			break
		}
		h := t.slot(k)
		inPlace := false
		if i <= j {
			inPlace = i < h && h <= j
		} else {
			inPlace = h > i || h <= j
		}
		if inPlace {
			continue
		}
		t.keys[i] = k
		t.vals[i] = t.vals[j]
		i = j
	}
	t.keys[i] = block.Invalid
	t.n--
}

func (t *AddrTable) rehash(slots int) {
	oldKeys, oldVals := t.keys, t.vals
	t.init(slots)
	for i, k := range oldKeys {
		if k != block.Invalid {
			t.Put(k, oldVals[i])
		}
	}
}

func (t *AddrTable) String() string {
	return fmt.Sprintf("AddrTable{%d/%d}", t.n, len(t.keys))
}
