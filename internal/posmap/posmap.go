// Package posmap implements the recursive position map in the Freecursive
// organization the paper's baseline adopts: PosMap1 and PosMap2 blocks live
// in the main ORAM tree under a unified block address space, while PosMap3
// (the map of PosMap2 blocks) is small enough to stay on-chip.
//
// Unified address space layout:
//
//	[0, Nd)              data blocks
//	[Nd, Nd+Np1)         PosMap1 blocks (16 data mappings each)
//	[Nd+Np1, Nd+Np1+Np2) PosMap2 blocks (16 PosMap1 mappings each)
//
// The package stores the authoritative block→leaf assignment for the whole
// space; the ORAM controller charges path accesses according to which
// PosMap blocks are PLB-resident when an entry is needed.
//
// Each entry is a 32-bit leaf. Leaves stay below 2^31 (config.MaxLevels),
// so the top bit is free for ρ's tree tag: a data block resident in ρ's
// small tree stores its small-tree leaf with bit 31 set (SetSmall, Small),
// and block.NoLeaf, which has every bit set, marks a block held out of
// both trees. A block's location is recorded in this one place.
package posmap

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
)

// Kind classifies a unified block ID.
type Kind uint8

const (
	// Data is a user data block.
	Data Kind = iota
	// Pos1 is a PosMap1 block.
	Pos1
	// Pos2 is a PosMap2 block.
	Pos2
)

// Map is the authoritative position map over the unified block space.
type Map struct {
	nd, np1, np2 uint64
	leafCount    uint64
	leaf         []uint32
	rng          *rng.Source
}

// New builds the map for the given geometry with every block assigned a
// uniform random leaf drawn from r.
func New(o config.ORAM, r *rng.Source) *Map {
	nd := o.DataBlocks()
	np1 := ceilDiv(nd, config.PosMapFanout)
	np2 := ceilDiv(np1, config.PosMapFanout)
	m := &Map{
		nd:        nd,
		np1:       np1,
		np2:       np2,
		leafCount: o.LeafCount(),
		leaf:      make([]uint32, nd+np1+np2),
		rng:       r,
	}
	for i := range m.leaf {
		m.leaf[i] = uint32(r.Uint64n(m.leafCount))
	}
	return m
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }

// Total returns the unified space size Nd+Np1+Np2.
func (m *Map) Total() uint64 { return m.nd + m.np1 + m.np2 }

// Kind classifies id. It panics on out-of-range IDs (a controller bug).
func (m *Map) Kind(id block.ID) Kind {
	switch {
	case uint64(id) < m.nd:
		return Data
	case uint64(id) < m.nd+m.np1:
		return Pos1
	case uint64(id) < m.Total():
		return Pos2
	default:
		panic(fmt.Sprintf("posmap: id %d outside unified space of %d", id, m.Total()))
	}
}

// Leaf returns the current main-tree leaf of id, or block.NoLeaf while the
// block is unmapped (LLC-D keeps accessed blocks out of the tree, and a
// demoted ρ block waits out of both trees). The caller must already know
// that id is not in ρ's small tree (Small): Leaf does not mask the tag, so
// that the tree load's two calls per block stay branch-free.
func (m *Map) Leaf(id block.ID) block.Leaf {
	return block.Leaf(m.leaf[id])
}

// smallTag marks an entry holding a ρ small-tree leaf.
const smallTag = 1 << 31

// Small returns id's small-tree leaf and true while id is resident in ρ's
// small tree, and block.NoLeaf and false otherwise.
func (m *Map) Small(id block.ID) (block.Leaf, bool) {
	v := m.leaf[id]
	if v&smallTag == 0 || v == uint32(block.NoLeaf) {
		return block.NoLeaf, false
	}
	return block.Leaf(v &^ smallTag), true
}

// SetSmall records that id is resident in ρ's small tree under leaf, which
// must be below 2^31-1 so that the tagged entry never reads as NoLeaf.
// Unmap ends the residency.
func (m *Map) SetSmall(id block.ID, leaf block.Leaf) {
	m.leaf[id] = uint32(leaf) | smallTag
}

// Remap assigns id a fresh uniform random leaf and returns it — the block
// remap phase of a path access.
func (m *Map) Remap(id block.ID) block.Leaf {
	l := block.Leaf(m.rng.Uint64n(m.leafCount))
	m.leaf[id] = uint32(l)
	return l
}

// Unmap marks id as not present in either tree (delayed remapping, or a
// ρ demotion).
func (m *Map) Unmap(id block.ID) { m.leaf[id] = uint32(block.NoLeaf) }

// Parent returns the PosMap block holding id's entry. onChip is true when
// the entry lives in the on-chip PosMap3 table (i.e. id is a PosMap2 block)
// and no fetch can ever be needed.
func (m *Map) Parent(id block.ID) (parent block.ID, onChip bool) {
	switch m.Kind(id) {
	case Data:
		return block.ID(m.nd + uint64(id)/config.PosMapFanout), false
	case Pos1:
		return block.ID(m.nd + m.np1 + (uint64(id)-m.nd)/config.PosMapFanout), false
	default:
		return 0, true
	}
}

// Pos1For returns the PosMap1 block covering data block a.
func (m *Map) Pos1For(a block.ID) block.ID {
	if m.Kind(a) != Data {
		panic(fmt.Sprintf("posmap: Pos1For(%v) on non-data block", a))
	}
	p, _ := m.Parent(a)
	return p
}
