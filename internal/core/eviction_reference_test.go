package core

import (
	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// takeForBucket removes and returns up to max blocks of fs placeable in the
// bucket that the path of leaf crosses at level: the per-level write-phase
// selection scan. It walks a copy of fs's storage order and removes each
// pick through Remove, whose swap-with-last moves the last entry into the
// pick's slot; the copy mirrors that move, so the scan visits the entries
// in the order a removal scan over the stash itself would. accept lets the
// caller veto candidates (the IR-Stash set-conflict rule); nil accepts all.
// Picks are appended to dst.
func takeForBucket(fs *stash.FStash, leaf block.Leaf, level, levels, max int,
	accept func(tree.Entry) bool, dst []tree.Entry) []tree.Entry {
	var items []tree.Entry
	fs.Each(func(e tree.Entry) { items = append(items, e) })
	for i := 0; i < len(items) && max > 0; {
		e := items[i]
		if !tree.SameSubtree(leaf, e.Leaf, level, levels) || (accept != nil && !accept(e)) {
			i++
			continue
		}
		dst = append(dst, e)
		max--
		fs.Remove(e.Addr)
		last := len(items) - 1
		items[i] = items[last]
		items = items[:last]
	}
	return dst
}

// evictOntoPathReference is the original per-level write phase, kept as the
// differential-test oracle of evictOntoPath: for each level, leaf-to-root,
// rescan the whole stash for blocks placeable in that level's bucket
// (takeForBucket), then fill the on-chip segment one block at a time,
// re-stashing refused blocks.
// refused and takeBuf are caller-owned scratch (refused is an epoch-stamped
// set reset per level, preserving the historical retry-at-shallower-levels
// semantics with an O(1) clear instead of a map walk).
// Reference entries are never flagged (its callers pre-Insert gathered
// blocks into the stash), so it reports fetched=false and its onPlace
// adapters derive the migration split from a membership set instead.
func evictOntoPathReference(fs *stash.FStash, tr *tree.Tree, top stash.TopStore,
	z config.ZProfile, minLevel, levels int, leaf block.Leaf,
	refused *epochSet, takeBuf []tree.Entry,
	onPlace func(e tree.Entry, level int, fetched bool)) {

	for l := levels - 1; l >= minLevel; l-- {
		take := takeForBucket(fs, leaf, l, levels, z[l], nil, takeBuf[:0])
		if onPlace != nil {
			for _, e := range take {
				onPlace(e, l, false)
			}
		}
		tr.FillBucket(l, leaf, take)
	}
	if top == nil {
		return
	}
	for l := minLevel - 1; l >= 0; l-- {
		refused.Reset()
		for placed := 0; placed < z[l]; {
			cand := takeForBucket(fs, leaf, l, levels, 1,
				func(e tree.Entry) bool { return !refused.Has(e.Addr) }, takeBuf[:0])
			if len(cand) == 0 {
				break
			}
			e := cand[0]
			if top.Fill(l, leaf, e) {
				if onPlace != nil {
					onPlace(e, l, false)
				}
				placed++
			} else {
				refused.Add(e.Addr)
				fs.Insert(e)
			}
		}
	}
}

// evictOntoPathReoffer is evictOntoPath with the on-chip loop it had before
// refused blocks were skipped (fillTopLevelsReoffer), the oracle of
// TestEvictionRefusalDifferential.
func evictOntoPathReoffer(fs *stash.FStash, tr *tree.Tree, top stash.TopStore,
	z config.ZProfile, minLevel, levels int, leaf block.Leaf,
	gathered []tree.Entry, lists [][]tree.Entry, buf []tree.Entry,
	onPlace func(e tree.Entry, level int, fetched bool)) []tree.Entry {

	buf = fillMemoryLevels(fs, tr, z, minLevel, levels, leaf, gathered, lists, buf, onPlace, nil)
	buf = fillTopLevelsReoffer(top, z, minLevel, leaf, lists, buf, onPlace)
	for _, e := range buf {
		e.Leaf &^= tree.GatherFlag
		fs.Insert(e)
	}
	return buf[:0]
}

// fillTopLevelsReoffer offers the whole pool again at every on-chip level,
// so a block an S-Stash set conflict refused at a deeper level is asked
// about, and refused, once more at each shallower one.
func fillTopLevelsReoffer(top stash.TopStore, z config.ZProfile, minLevel int, leaf block.Leaf,
	lists [][]tree.Entry, buf []tree.Entry,
	onPlace func(e tree.Entry, level int, fetched bool)) []tree.Entry {

	for l := minLevel - 1; l >= 0; l-- {
		buf = append(buf, lists[l]...)
		placed, w := 0, 0
		for r := 0; r < len(buf); r++ {
			e := buf[r]
			fetched := e.Leaf&tree.GatherFlag != 0
			e.Leaf &^= tree.GatherFlag
			if placed < z[l] && top.Fill(l, leaf, e) {
				onPlace(e, l, fetched)
				placed++
				continue
			}
			buf[w] = buf[r] // refused: keep the flag for shallower levels
			w++
		}
		buf = buf[:w]
	}
	return buf
}
