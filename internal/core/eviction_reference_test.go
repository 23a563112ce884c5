package core

import (
	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// evictOntoPathReference is the original per-level write phase, kept as the
// differential-test oracle of evictOntoPath: for each level, leaf-to-root,
// rescan the whole stash for blocks placeable in that level's bucket
// (TakeForBucket), then fill the on-chip segment one block at a time,
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
		take := fs.TakeForBucket(leaf, l, levels, z[l], nil, takeBuf[:0])
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
			cand := fs.TakeForBucket(leaf, l, levels, 1,
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
