// Package config defines the configuration surface of the IR-ORAM simulator:
// ORAM tree geometry (including the per-level bucket sizes that implement
// IR-Alloc), DRAM timing, cache hierarchy, CPU model, and scheme selection.
//
// The presets mirror Table I of the paper (L=25 protecting 8 GB with 4 GB of
// user data) plus a scaled default used by the experiment harness and a tiny
// geometry for unit tests. All experiments are pure functions of a
// SystemConfig and a seed.
//
// The configuration structs double as the cache identity of a simulation
// cell: internal/cellcache fingerprints a fully-resolved System field by
// field. Adding a field here is safe — a reflection guard there fails
// loudly until the key encoder covers it — but the new field must be added
// to that encoder before anything using the cell cache runs.
package config

import (
	"errors"
	"fmt"
)

// BlockSize is the data block (cache line) size in bytes. The paper fixes it
// at 64 B; the PosMap entry size (4 B) and therefore the recursion fanout
// (16) follow from it.
const BlockSize = 64

// PosMapEntryBytes is the size of one PosMap entry (a path ID).
const PosMapEntryBytes = 4

// PosMapFanout is the number of PosMap entries per 64 B block.
const PosMapFanout = BlockSize / PosMapEntryBytes

// ZProfile holds the bucket size (Z) of every tree level, index 0 = root.
// A classic Path ORAM uses a uniform profile; IR-Alloc shrinks the middle
// levels. Levels cached on-chip (below ORAM.TopLevels) use their profile
// value as the on-chip bucket capacity; for DRAM space accounting they
// contribute nothing (the paper's "Z=0 for memory allocation" for [0,9]).
type ZProfile []int

// Uniform returns a profile with the same Z at every one of levels levels.
func Uniform(levels, z int) ZProfile {
	p := make(ZProfile, levels)
	for i := range p {
		p[i] = z
	}
	return p
}

// Band describes a run of tree levels, counted from the leaf level upward,
// that share a bucket size. Bands compose into IR-Alloc profiles in a
// geometry-independent way: the paper's L=25 configurations are expressed as
// leaf-relative bands so they scale with L (Fig 16).
type Band struct {
	// Levels is how many consecutive levels the band covers.
	Levels int
	// Z is the bucket size within the band.
	Z int
}

// Banded builds a profile for a tree with levels levels and topLevels
// on-chip levels. Bands are applied bottom-up starting at the leaf; any
// remaining levels between the top cache and the last band get restZ. Levels
// above topLevels keep Z=4 (the on-chip bucket capacity).
func Banded(levels, topLevels, restZ int, bands ...Band) ZProfile {
	p := Uniform(levels, 4)
	l := levels - 1
	for _, b := range bands {
		for i := 0; i < b.Levels && l >= topLevels; i++ {
			p[l] = b.Z
			l--
		}
	}
	for ; l >= topLevels; l-- {
		p[l] = restZ
	}
	return p
}

// BlocksPerPath returns the number of blocks one path access moves to or
// from DRAM: the sum of Z over the memory-resident levels [topLevels, L).
func (p ZProfile) BlocksPerPath(topLevels int) int {
	n := 0
	for l := topLevels; l < len(p); l++ {
		n += p[l]
	}
	return n
}

// Slots returns the total number of block slots of the whole tree (on-chip
// top levels included), i.e. sum over levels of 2^level * Z(level).
func (p ZProfile) Slots() uint64 {
	var n uint64
	for l, z := range p {
		n += (uint64(1) << uint(l)) * uint64(z)
	}
	return n
}

// MemorySlots returns the number of slots allocated in DRAM (levels at and
// below topLevels).
func (p ZProfile) MemorySlots(topLevels int) uint64 {
	var n uint64
	for l := topLevels; l < len(p); l++ {
		n += (uint64(1) << uint(l)) * uint64(p[l])
	}
	return n
}

// SpaceReductionVs returns the fractional DRAM space saved relative to base,
// considering memory-resident levels only. Positive means p is smaller.
func (p ZProfile) SpaceReductionVs(base ZProfile, topLevels int) float64 {
	b := base.MemorySlots(topLevels)
	if b == 0 {
		return 0
	}
	return 1 - float64(p.MemorySlots(topLevels))/float64(b)
}

// TopDesign selects how the top tree levels are kept on-chip.
type TopDesign uint8

const (
	// TopNone keeps the whole tree in DRAM (the original Path ORAM).
	TopNone TopDesign = iota
	// TopDedicated is the baseline: a dedicated bucket-indexed tree-top
	// cache, invisible to the LLC (a request must resolve its PosMap entry
	// before it can discover a tree-top hit).
	TopDedicated
	// TopIRStash is the IR-Stash design: the tree top lives in a
	// double-indexed set-associative S-Stash searchable by block address,
	// with the TT pointer table preserving the tree structure.
	TopIRStash
)

func (d TopDesign) String() string {
	switch d {
	case TopNone:
		return "none"
	case TopDedicated:
		return "dedicated"
	case TopIRStash:
		return "ir-stash"
	default:
		return fmt.Sprintf("TopDesign(%d)", uint8(d))
	}
}

// ORAM configures the ORAM tree and controller.
type ORAM struct {
	// Levels is L, the number of tree levels (root level 0, leaves L-1).
	Levels int
	// TopLevels is how many top levels are kept on-chip (10 in the paper).
	TopLevels int
	// Z is the per-level bucket size profile, length Levels.
	Z ZProfile
	// UserBlocks is the number of protected data blocks (N_d). Zero means
	// "half of the uniform-Z=4 slot capacity", the paper's 50% rule.
	UserBlocks uint64
	// StashCapacity is the F-Stash size in blocks (200 in the paper).
	StashCapacity int
	// StashEvictThreshold triggers background eviction when the F-Stash
	// holds more blocks than this after a write phase.
	StashEvictThreshold int
	// SStashWays is the associativity of the S-Stash (IR-Stash only).
	SStashWays int
	// PLBEntries is the number of PosMap blocks the PLB can hold.
	PLBEntries int
	// PLBWays is the PLB associativity.
	PLBWays int
	// IntervalT is the fixed path-issue interval in CPU cycles for
	// timing-channel protection. Zero disables the protection (no pacing,
	// no dummy paths), used by the "no timing protection" ablation.
	IntervalT uint64
	// OnChipLatency is the fixed CPU-cycle cost charged for stash/PLB/
	// PosMap3 lookups and block decrypt/authenticate per path.
	OnChipLatency uint64
}

// LeafCount returns the number of leaves, 2^(Levels-1).
func (o ORAM) LeafCount() uint64 { return uint64(1) << uint(o.Levels-1) }

// DataBlocks returns the effective number of protected user blocks.
func (o ORAM) DataBlocks() uint64 {
	if o.UserBlocks != 0 {
		return o.UserBlocks
	}
	return Uniform(o.Levels, 4).Slots() / 2
}

// DRAM configures the memory timing model. Times are in DRAM cycles; the
// model converts to CPU cycles with CPUCyclesPerDRAMCycle.
type DRAM struct {
	Channels              int
	BanksPerChannel       int
	RowBytes              int
	CPUCyclesPerDRAMCycle int
	TRCD                  int // activate -> column command
	TCAS                  int // column command -> first data
	TRP                   int // precharge
	TBurst                int // data transfer per 64 B block
	TWR                   int // write recovery before precharge
}

// Cache configures one cache level.
type Cache struct {
	CapacityBytes int
	Ways          int
	HitLatency    uint64 // CPU cycles
}

// Sets returns the number of sets.
func (c Cache) Sets() int { return c.CapacityBytes / BlockSize / c.Ways }

// CPU configures the trace-driven core model.
type CPU struct {
	// IPC is the retire rate for the non-memory instruction gap between
	// trace records.
	IPC int
	// WriteQueueDepth bounds the posted (non-blocking) ORAM write requests
	// from dirty LLC evictions before the core stalls.
	WriteQueueDepth int
	// MLP is the number of outstanding read misses the out-of-order core
	// sustains before stalling (its ROB-limited memory-level parallelism).
	MLP int
}

// Scheme selects which of the paper's compared designs is active. The zero
// value is the Baseline (Freecursive + dedicated 10-level tree-top cache +
// subtree layout + background eviction).
type Scheme struct {
	// Name is a display label ("Baseline", "IR-ORAM", ...).
	Name string
	// Top selects the tree-top design.
	Top TopDesign
	// DWB enables IR-DWB dummy-to-writeback conversion.
	DWB bool
	// DelayedRemap enables the LLC-D delayed block remapping policy.
	DelayedRemap bool
	// ProactiveRemap implements the paper's Section IV-D future work:
	// under LLC-D, dummy paths are converted into PosMap prefetches for
	// LLC LRU entries, so the PosMap work their eviction would need is
	// already done. Requires DelayedRemap and DWB.
	ProactiveRemap bool
	// Rho enables the two-tree ρ design (smaller hot tree + main tree).
	Rho bool
	// RhoLevelsDelta is how many levels smaller the ρ tree is than the
	// main tree (paper best setting: main L=25, small L=19 => 6).
	RhoLevelsDelta int
	// RhoZ is the ρ small-tree bucket size (2 in the paper).
	RhoZ int
	// RhoPattern is the number of small-tree slots per main-tree slot in
	// the fixed issue pattern (2 => "1:2" in the paper).
	RhoPattern int
	// Ring replaces the Path ORAM read protocol with Ring ORAM (Ren et
	// al., cited as orthogonal in Section VII): one block per bucket per
	// read, early bucket reshuffles, and a full eviction path every RingA
	// accesses. Composes with the IR-Alloc Z profile.
	Ring bool
	// RingS is the per-bucket dummy budget (reads a bucket serves between
	// reshuffles).
	RingS int
	// RingA is the eviction rate: one full eviction path per RingA
	// accesses.
	RingA int
}

// System is the full simulator configuration.
type System struct {
	ORAM ORAM
	DRAM DRAM
	LLC  Cache
	L1   Cache
	CPU  CPU
	Scheme
	// Seed drives every random decision (leaf remaps, traces, placement).
	Seed uint64
}

// Validate checks internal consistency and returns a descriptive error for
// the first violated constraint.
func (s System) Validate() error {
	o := s.ORAM
	switch {
	// 32 keeps every leaf below 2^31: leaves are 32-bit and the top bit is
	// reserved as an in-flight marker (tree.GatherFlag).
	case o.Levels < 3 || o.Levels > 32:
		return fmt.Errorf("config: ORAM levels %d out of [3,32]", o.Levels)
	case o.TopLevels < 0 || o.TopLevels >= o.Levels:
		return fmt.Errorf("config: top levels %d out of [0,%d)", o.TopLevels, o.Levels)
	case len(o.Z) != o.Levels:
		return fmt.Errorf("config: Z profile has %d levels, want %d", len(o.Z), o.Levels)
	case o.StashCapacity < 8:
		return fmt.Errorf("config: stash capacity %d too small", o.StashCapacity)
	case o.StashEvictThreshold <= 0 || o.StashEvictThreshold > o.StashCapacity:
		return fmt.Errorf("config: stash eviction threshold %d out of (0,%d]",
			o.StashEvictThreshold, o.StashCapacity)
	case o.PLBEntries <= 0 || o.PLBWays <= 0 || o.PLBEntries%o.PLBWays != 0:
		return fmt.Errorf("config: PLB %d entries / %d ways invalid", o.PLBEntries, o.PLBWays)
	}
	for l, z := range o.Z {
		if z < 0 || z > 16 {
			return fmt.Errorf("config: Z[%d]=%d out of [0,16]", l, z)
		}
		if l >= o.TopLevels && z == 0 {
			return fmt.Errorf("config: memory level %d has Z=0", l)
		}
	}
	// The tree (minus a stash worth of slack) must fit all user blocks plus
	// the recursive PosMap blocks.
	need := o.DataBlocks()
	need += ceilDiv(need, PosMapFanout)                        // PosMap1
	need += ceilDiv(ceilDiv(need, PosMapFanout), PosMapFanout) // PosMap2 upper bound
	if slots := o.Z.Slots(); uint64(float64(slots)*0.95) < need {
		return fmt.Errorf("config: %d blocks need more than 95%% of %d slots", need, slots)
	}
	if s.Scheme.Top == TopIRStash && o.SStashWays <= 0 {
		return errors.New("config: IR-Stash requires SStashWays > 0")
	}
	if s.Scheme.ProactiveRemap && (!s.Scheme.DelayedRemap || !s.Scheme.DWB) {
		return errors.New("config: ProactiveRemap requires DelayedRemap and DWB")
	}
	if s.Scheme.Ring {
		if s.Scheme.RingS <= 0 || s.Scheme.RingA <= 0 {
			return errors.New("config: Ring requires positive RingS and RingA")
		}
		if s.Scheme.Rho || s.Scheme.DelayedRemap {
			return errors.New("config: Ring does not combine with Rho or LLC-D")
		}
	}
	if s.Scheme.Rho {
		if s.Scheme.RhoLevelsDelta <= 0 || s.Scheme.RhoLevelsDelta >= o.Levels-2 {
			return fmt.Errorf("config: rho delta %d invalid", s.Scheme.RhoLevelsDelta)
		}
		if s.Scheme.RhoZ <= 0 || s.Scheme.RhoPattern <= 0 {
			return errors.New("config: rho Z and pattern must be positive")
		}
	}
	d := s.DRAM
	if d.Channels <= 0 || d.BanksPerChannel <= 0 || d.RowBytes < BlockSize ||
		d.CPUCyclesPerDRAMCycle <= 0 {
		return errors.New("config: DRAM geometry invalid")
	}
	if d.TRCD <= 0 || d.TCAS <= 0 || d.TRP <= 0 || d.TBurst <= 0 || d.TWR < 0 {
		return errors.New("config: DRAM timings must be positive")
	}
	for _, c := range []Cache{s.LLC, s.L1} {
		if c.CapacityBytes <= 0 || c.Ways <= 0 || c.CapacityBytes%(BlockSize*c.Ways) != 0 {
			return fmt.Errorf("config: cache %+v geometry invalid", c)
		}
	}
	if s.CPU.IPC <= 0 || s.CPU.WriteQueueDepth <= 0 || s.CPU.MLP <= 0 {
		return errors.New("config: CPU IPC, write queue depth and MLP must be positive")
	}
	return nil
}

func ceilDiv(a, b uint64) uint64 { return (a + b - 1) / b }
