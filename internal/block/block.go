// Package block defines the basic identifiers shared by every layer of the
// simulator: block IDs in the Freecursive-unified address space, tree leaf
// IDs, and the access/path type taxonomy from the IR-ORAM paper.
package block

import "fmt"

// ID identifies a 64 B block in the unified (Freecursive) address space:
// data blocks first, then PosMap1 blocks, then PosMap2 blocks. The special
// value Invalid marks an empty (dummy) bucket slot.
type ID uint64

// Invalid is the sentinel for "no block" (a dummy slot).
const Invalid ID = ^ID(0)

// Valid reports whether the ID names a real block.
func (id ID) Valid() bool { return id != Invalid }

func (id ID) String() string {
	if id == Invalid {
		return "blk<dummy>"
	}
	return fmt.Sprintf("blk%d", uint64(id))
}

// Leaf identifies a leaf of the ORAM tree, in [0, 2^(L-1)). The path of leaf
// l consists of the buckets from the root down to leaf l. NoLeaf marks an
// unmapped block (used by the LLC-D delayed-remap policy while a block lives
// only in the LLC).
type Leaf uint32

// NoLeaf is the sentinel for "currently unmapped".
const NoLeaf Leaf = ^Leaf(0)

// Valid reports whether the leaf names a real tree path.
func (l Leaf) Valid() bool { return l != NoLeaf }

// PathType classifies a path access as in Section III-A of the paper.
type PathType uint8

const (
	// PathData is a PT_d path: fetching or writing a requested data block.
	PathData PathType = iota
	// PathPos1 is a PT_p path for a PosMap1 block (data addr -> leaf map).
	PathPos1
	// PathPos2 is a PT_p path for a PosMap2 block (PosMap1 addr -> leaf map).
	PathPos2
	// PathDummy is a PT_m path: inserted only to defeat timing channels.
	PathDummy
	// PathEvict is a background-eviction path (Ren et al.): a random path
	// read+write that drains the stash. Outside the TCB it is
	// indistinguishable from every other type.
	PathEvict
	// PathDWB is a dummy slot converted by IR-DWB into an early write-back
	// step (one of the up-to-three accesses needed to flush a dirty LLC
	// line). Outside the TCB it is indistinguishable from a dummy.
	PathDWB
	numPathTypes
)

// NumPathTypes is the number of PathType values, for sizing counter arrays.
const NumPathTypes = int(numPathTypes)

var pathTypeNames = [...]string{
	PathData:  "PTd",
	PathPos1:  "PTp(Pos1)",
	PathPos2:  "PTp(Pos2)",
	PathDummy: "PTm",
	PathEvict: "BgEvict",
	PathDWB:   "DWB",
}

func (t PathType) String() string {
	if int(t) < len(pathTypeNames) {
		return pathTypeNames[t]
	}
	return fmt.Sprintf("PathType(%d)", uint8(t))
}

var pathTypeSlugs = [...]string{
	PathData:  "ptd",
	PathPos1:  "ptp1",
	PathPos2:  "ptp2",
	PathDummy: "ptm",
	PathEvict: "evict",
	PathDWB:   "dwb",
}

// Slug returns the path type's stable lower-case name: the component of its
// metric names (oram_paths_<slug>, docs/METRICS.md) and the name of its
// flight-trace access and phase spans. Both are recorded schemas, so a
// type's slug never changes. An unknown type reads "pt<n>".
func (t PathType) Slug() string {
	if int(t) < len(pathTypeSlugs) {
		return pathTypeSlugs[t]
	}
	return fmt.Sprintf("pt%d", uint8(t))
}
