package core

import (
	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// This file implements the write phase of a path access — draining the
// F-Stash into the just-read path, deepest bucket first.
//
// The hot implementation (evictOntoPath) is the single-pass formulation of
// the original Path ORAM paper (Stefanov et al.): one walk over the stash
// classifies every entry by its deepest placeable level on the current path
// (tree.DeepestLevel, a leaf-XOR + leading-zero count), then buckets are
// filled deepest-first from the per-level lists, with entries that did not
// fit spilling toward the root. Cost is O(stash + path). The per-level
// formulation — one full stash scan per tree level (takeForBucket) — is
// O(levels × stash) and is retained in eviction_reference_test.go
// (evictOntoPathReference) as the oracle for the differential tests in
// eviction_test.go.
//
// The two implementations place the same NUMBER of blocks at every level of
// the path (both are maximal greedy deepest-first evictions; see
// TestEvictionDifferential), but may pick DIFFERENT blocks when more
// candidates fit a level than the bucket holds: the reference scan picks by
// stash storage order, the single-pass picks deepest-candidates-first.
// Recorded experiment tables were re-baselined for this tie-break change in
// EXPERIMENTS.md (PR 3); both orders are deterministic, so tables remain
// byte-identical across runs and -jobs values.

// evictOntoPath drains fs onto the path of leaf: memory-resident levels
// [minLevel, levels) are bulk-filled into tr, and — when top is non-nil —
// the on-chip levels [0, minLevel) are filled per-entry through top.Fill,
// honoring its refusals (S-Stash set conflicts, the paper's "skip picking
// this block for this round" rule). A refused block is never offered again
// in the same phase: its set cannot gain a free way while the phase only
// adds blocks, so every shallower level would refuse it too. Refused blocks
// keep their place in the pool, so every placement, and the order in which
// entries that fit nowhere return to the stash, are those of offering every
// block again at every level (fillTopLevelsReoffer in
// eviction_reference_test.go).
//
// Every on-chip refusal is a set conflict: the read phase emptied each
// bucket on the path, and a level takes at most z[l] blocks, so no Fill
// finds its bucket full (TestEvictionRefusalDifferential checks this).
//
// Precondition: top == nil implies minLevel == 0. On-chip levels exist
// only together with a top store, and every caller passes a pathTree's own
// (top, minLevel) pair, for which that holds. Every stashed entry is then
// placeable at some level of the path, so the whole stash drains into the
// per-level candidate lists (FStash.DrainForPath).
//
// migTally is Fig 5's migration split, added to as a write phase places
// blocks: fetched[l] counts the blocks placed at level l that the current
// access gathered (they carry tree.GatherFlag), preexisting[l] the others.
// The two slices are the Counts of Stats.MigrationFetched and
// Stats.MigrationPreexisting, so every placement lands in the histograms
// directly. It is the bulk alternative to the per-entry onPlace callback
// for callers — the demand pipeline — that only chart the migration split:
// two adds per FILL beat an indirect call per BLOCK on the hottest loop in
// the simulator.
type migTally struct {
	fetched     []uint64
	preexisting []uint64
}

func newMigTally(st *Stats) *migTally {
	return &migTally{fetched: st.MigrationFetched.Counts, preexisting: st.MigrationPreexisting.Counts}
}

// add tallies one placement at level. It does nothing on a nil tally (ρ's
// small tree).
func (m *migTally) add(level int, fetched bool) {
	if m == nil {
		return
	}
	if fetched {
		m.fetched[level]++
	} else {
		m.preexisting[level]++
	}
}

// lists (at least `levels` slices) and buf are caller-owned scratch reused
// across paths; onPlace, when non-nil, observes every placement along with
// whether the placed block was gathered by the current path access
// (carried by tree.GatherFlag on gathered entries' leaves and stripped
// here before any entry reaches storage). counts, when non-nil, receives
// the migration tally instead; passing both is allowed but the demand
// pipeline passes exactly one. The returned slice is buf's
// (possibly grown) backing for the caller to keep.
func evictOntoPath(fs *stash.FStash, tr *tree.Tree, top stash.TopStore,
	z config.ZProfile, minLevel, levels int, leaf block.Leaf,
	gathered []tree.Entry, lists [][]tree.Entry, buf []tree.Entry,
	onPlace func(e tree.Entry, level int, fetched bool),
	counts *migTally) []tree.Entry {

	buf = fillMemoryLevels(fs, tr, z, minLevel, levels, leaf, gathered, lists, buf, onPlace, counts)
	if top != nil {
		buf = fillTopLevels(top, z, minLevel, leaf, lists, buf, onPlace, counts)
	}
	for _, e := range buf {
		e.Leaf &^= tree.GatherFlag
		fs.Insert(e)
	}
	return buf[:0]
}

// fillMemoryLevels is the first half of evictOntoPath: it drains fs into
// lists, fills the memory-resident levels, and returns the leftover pool in
// buf, still flagged, for the on-chip levels and the stash.
func fillMemoryLevels(fs *stash.FStash, tr *tree.Tree,
	z config.ZProfile, minLevel, levels int, leaf block.Leaf,
	gathered []tree.Entry, lists [][]tree.Entry, buf []tree.Entry,
	onPlace func(e tree.Entry, level int, fetched bool),
	counts *migTally) []tree.Entry {

	for l := 0; l < levels; l++ {
		lists[l] = lists[l][:0]
	}
	// gathered holds the blocks the fused read walk just pulled off the
	// path, kept out of the stash because this drain would remove them
	// again immediately; DrainForPath classifies them and the resident
	// entries in the exact order inserting them first would have produced.
	// Callers that pre-inserted (the reference pipelines and the eviction
	// tests) pass gathered == nil.
	fs.DrainForPath(leaf, levels, lists, gathered)

	// The candidate pool for the current level is the entries whose deepest
	// placeable level was at or below it but which did not fit deeper. Pool
	// order is deterministic — deeper-classified entries first — and the
	// pool is consumed as a virtual FIFO straight out of the per-level
	// lists (cur/off mark the first unconsumed entry; lists[l] joins the
	// pool when the walk reaches level l), so the memory-resident fill
	// copies nothing. The fill cap of a level is its bucket's full capacity
	// z[l]: every caller runs the write phase immediately after the read
	// phase drained each bucket on the path, so all slots are free — no
	// occupancy query needed, and FillBucket still panics if the
	// precondition is ever violated. A take that straddles a list boundary
	// becomes consecutive FillBucket calls, which claim free slots in
	// exactly the order one call would.
	cur, off := levels-1, 0
	for l := levels - 1; l >= minLevel; l-- {
		for n := z[l]; n > 0; {
			if off == len(lists[cur]) {
				if cur == l {
					break
				}
				cur--
				off = 0
				continue
			}
			take := lists[cur][off:]
			if len(take) > n {
				take = take[:n]
			}
			switch {
			case onPlace != nil:
				for i := range take {
					fetched := take[i].Leaf&tree.GatherFlag != 0
					take[i].Leaf &^= tree.GatherFlag
					onPlace(take[i], l, fetched)
					counts.add(l, fetched)
				}
			case counts != nil:
				f := 0
				for i := range take {
					if take[i].Leaf&tree.GatherFlag != 0 {
						f++
					}
					take[i].Leaf &^= tree.GatherFlag
				}
				counts.fetched[l] += uint64(f)
				counts.preexisting[l] += uint64(len(take) - f)
			default:
				for i := range take {
					take[i].Leaf &^= tree.GatherFlag
				}
			}
			tr.FillBucket(l, leaf, take)
			off += len(take)
			n -= len(take)
		}
	}
	// Materialize the (typically small) leftover pool: spillover plus the
	// on-chip classified entries, in the virtual pool's order.
	buf = buf[:0]
	buf = append(buf, lists[cur][off:]...)
	for ll := cur - 1; ll >= minLevel; ll-- {
		buf = append(buf, lists[ll]...)
	}
	return buf
}

// fillTopLevels is the second half of evictOntoPath: it offers the pool in
// buf, joined by lists[l] at each on-chip level l, to top, and returns the
// blocks that fit nowhere in pool order. buf[:refused] holds the blocks a
// set conflict has refused, buf[refused:r] is dead (placed blocks, or
// refusals already moved down into the prefix), and buf[r:] is the
// unoffered tail in pool order. The read cursor r carries over from level
// to level: each level appends its list behind the tail and offers the
// tail in order until its bucket is full, and a refusal joins the prefix.
// Closing the dead gap once, after the last level, leaves the order that
// closing it after every level would.
func fillTopLevels(top stash.TopStore, z config.ZProfile, minLevel int, leaf block.Leaf,
	lists [][]tree.Entry, buf []tree.Entry,
	onPlace func(e tree.Entry, level int, fetched bool),
	counts *migTally) []tree.Entry {

	refused, r := 0, 0
	for l := minLevel - 1; l >= 0; l-- {
		buf = append(buf, lists[l]...)
		placed := 0
		for ; r < len(buf) && placed < z[l]; r++ {
			e := buf[r]
			fetched := e.Leaf&tree.GatherFlag != 0
			e.Leaf &^= tree.GatherFlag
			if top.Fill(l, leaf, e) {
				if onPlace != nil {
					onPlace(e, l, fetched)
				}
				counts.add(l, fetched)
				placed++
				continue
			}
			buf[refused] = buf[r] // keeps the flag for the stash strip
			refused++
		}
	}
	return buf[:refused+copy(buf[refused:], buf[r:])]
}
