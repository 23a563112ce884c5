// Package dram is the memory timing model standing in for USIMM. It tracks
// per-bank row-buffer state across channels and services the block batches
// that ORAM path accesses generate, charging DDR-style timing (activate /
// column access / precharge / burst). Together with the subtree layout in
// internal/tree it reproduces the two first-order effects Path ORAM
// performance depends on: path-batch service time and row-buffer locality.
//
// The package has one timing implementation: run-length service. Every
// phase — Path ORAM paths, Ring ORAM reads, reshuffles and evictions, the
// context-switch spill — is an address list issued at one cycle in one bus
// direction; ServicePath/PostWritePath group it into per-(channel,bank,row)
// runs (see Run, AppendRuns) and charge one row-buffer transition plus one
// burst accumulation per run, with PathSched memoizing the run list per
// leaf. The original per-address servicer lives on only in oracle_test.go,
// as the differential oracle: the randomized tests in this package require
// bit-identical timing, statistics and state evolution from both.
package dram

import (
	"fmt"
	"math/bits"

	"iroram/internal/config"
	"iroram/internal/flight"
)

// Stats aggregates DRAM activity.
type Stats struct {
	Reads     uint64
	Writes    uint64
	RowHits   uint64
	RowMisses uint64
	// BusyCPUCycles is the sum of per-channel busy time in CPU cycles.
	BusyCPUCycles uint64
}

// RowHitRate returns the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}

const noRow = ^uint64(0)

type bank struct {
	openRow   uint64
	lastWrite bool
	// avail is the earliest CPU cycle at which data for a column access to
	// the open row can appear on the bus (activation + tRCD + tCAS).
	avail uint64
	// lastData is when the bank's most recent data transfer finishes; the
	// row cannot be precharged before that.
	lastData uint64
}

type channel struct {
	banks  []bank
	freeAt uint64 // CPU cycle when the channel data bus becomes idle
}

// timing caches the DDR parameters pre-converted to CPU cycles, so the
// per-access service loop does no multiplication.
type timing struct {
	burst, cas, rcd, pre, wr uint64
}

// Model is the DRAM timing simulator. All externally visible times are CPU
// cycles; the model converts internally using CPUCyclesPerDRAMCycle.
type Model struct {
	cfg       config.DRAM
	t         timing
	channels  []channel
	rowBlocks uint64
	stats     Stats

	// Shift/mask decomposition, used by AppendRuns when channels, banks
	// and row blocks are all powers of two (every preset geometry): three
	// 64-bit divisions per address become shifts. pow2 false falls back to
	// the division form; the per-address oracle in oracle_test.go always
	// divides, so the differential tests also pin the fast path's
	// arithmetic.
	pow2              bool
	chShift, rowShift uint
	bkShift           uint
	chMask, bkMask    uint64

	// Scratch for the run-length path service (reused, never shrunk) and
	// the schedule caches to invalidate on Reset.
	lastRun    []int32  // per-channel index of the open run in AppendRuns
	chCount    []uint64 // per-channel access counts for posted-write drains
	runScratch []Run    // ServicePath's run list: Ring, context-switch and reference phases
	scheds     []*PathSched

	// fl, when non-nil, receives per-run service events and posted-write
	// drain events for accesses the recorder has armed (see AttachFlight).
	fl *flight.Recorder
}

// AttachFlight wires a flight recorder into the run-length service: while
// the recorder is armed, ServiceRuns records one event per run (row,
// length, hit/miss) and posted-write drains record one event per busy
// channel — for every phase, including a Ring eviction's dummy slots or a
// context-switch spill serviced while a sampled access left it armed.
// Recording only observes; timing and statistics are unchanged.
func (m *Model) AttachFlight(fl *flight.Recorder) { m.fl = fl }

// New builds a model from the configuration. It panics on invalid geometry
// (callers validate configs up front; see config.System.Validate).
func New(cfg config.DRAM) *Model {
	if cfg.Channels <= 0 || cfg.BanksPerChannel <= 0 || cfg.RowBytes < config.BlockSize {
		panic(fmt.Sprintf("dram: invalid geometry %+v", cfg))
	}
	if cfg.Channels > 1<<16 || cfg.BanksPerChannel > 1<<16 {
		// Run packs channel and bank into uint16 each.
		panic(fmt.Sprintf("dram: geometry exceeds run encoding %+v", cfg))
	}
	cpd := uint64(cfg.CPUCyclesPerDRAMCycle)
	m := &Model{
		cfg: cfg,
		t: timing{
			burst: uint64(cfg.TBurst) * cpd,
			cas:   uint64(cfg.TCAS) * cpd,
			rcd:   uint64(cfg.TRCD) * cpd,
			pre:   uint64(cfg.TRP) * cpd,
			wr:    uint64(cfg.TWR) * cpd,
		},
		channels:  make([]channel, cfg.Channels),
		rowBlocks: uint64(cfg.RowBytes / config.BlockSize),
	}
	for i := range m.channels {
		m.channels[i].banks = make([]bank, cfg.BanksPerChannel)
		for b := range m.channels[i].banks {
			m.channels[i].banks[b].openRow = noRow
		}
	}
	m.lastRun = make([]int32, cfg.Channels)
	m.chCount = make([]uint64, cfg.Channels)
	m.runScratch = make([]Run, 0, 64)
	nCh, nBk := uint64(cfg.Channels), uint64(cfg.BanksPerChannel)
	if nCh&(nCh-1) == 0 && nBk&(nBk-1) == 0 && m.rowBlocks&(m.rowBlocks-1) == 0 {
		m.pow2 = true
		m.chShift = uint(bits.TrailingZeros64(nCh))
		m.chMask = nCh - 1
		m.rowShift = uint(bits.TrailingZeros64(m.rowBlocks))
		m.bkShift = uint(bits.TrailingZeros64(nBk))
		m.bkMask = nBk - 1
	}
	return m
}

// RowBlocks returns the number of 64 B blocks per DRAM row.
func (m *Model) RowBlocks() uint64 { return m.rowBlocks }

// ServicePath services one phase of block transfers starting no earlier
// than now and returns the cycle at which the last transfer finishes. Every
// address in phys is offset by off (the tree's physical base; 0 for the
// main tree) and serviced in the given direction; the list is grouped into
// runs (AppendRuns) and charged by ServiceRuns.
//
// The model pipelines banks behind a shared per-channel data bus, the way
// DDR controllers do: a row miss charges precharge (+ write recovery) and
// activate on the *bank*, which overlaps with other banks' data transfers;
// only the tBURST data beats serialize on the channel bus. Channel cursors
// persist across phases, so a phase issued while an earlier one is
// draining queues behind it — which is how dummy-path contention delays
// demand requests.
func (m *Model) ServicePath(now uint64, phys []uint64, off uint64, write bool) uint64 {
	if len(phys) == 0 {
		return now
	}
	m.runScratch = m.AppendRuns(phys, off, m.runScratch[:0])
	return m.ServiceRuns(now, m.runScratch, write)
}

// PostWritePath queues one write phase (addresses offset by off) the way an
// FR-FCFS controller's write buffer drains it: the transfers occupy the
// channel data buses (delaying everything issued later) but do not close
// rows or block later reads on bank timing — reads are prioritized over
// buffered writes, and ORAM write phases target the rows the read phase
// just opened. It returns the cycle the last write drains (informational;
// callers normally don't wait on it). Posted writes only occupy channel
// buses, so the run-length form degenerates to one per-channel access
// count: the drain is O(channels) regardless of path length.
func (m *Model) PostWritePath(now uint64, phys []uint64, off uint64) uint64 {
	if len(phys) == 0 {
		return now
	}
	for i := range m.chCount {
		m.chCount[i] = 0
	}
	nCh := uint64(m.cfg.Channels)
	for _, a := range phys {
		m.chCount[(a+off)%nCh]++
	}
	return m.drainCounts(now)
}

// FreeAt returns the cycle at which every channel is idle, i.e. when all
// previously issued traffic has drained.
func (m *Model) FreeAt() uint64 {
	var max uint64
	for i := range m.channels {
		if m.channels[i].freeAt > max {
			max = m.channels[i].freeAt
		}
	}
	return max
}

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }

// Reset clears timing state and statistics, and invalidates every
// PathSched created from this model.
func (m *Model) Reset() {
	m.stats = Stats{}
	for i := range m.channels {
		m.channels[i].freeAt = 0
		for b := range m.channels[i].banks {
			m.channels[i].banks[b] = bank{openRow: noRow}
		}
	}
	for _, s := range m.scheds {
		s.Invalidate()
	}
}

// PathServiceBound returns an upper bound on the CPU cycles one path phase
// of n blocks takes on an idle memory system — useful for checking that the
// timing-protection interval T can absorb a full path (the paper's
// assumption when fixing T=1000).
//
// The bound is strict for any address sequence: a channel's cursor advances
// by at most one full row turnaround (precharge + write recovery +
// activate + column access) plus one burst per access, because a bank's
// last data beat never trails its channel's bus cursor. Real subtree-laid-
// out paths come in far under it — they pay roughly one turnaround per
// chunk, not per block — which TestPathServiceBoundDominatesRunLength
// exercises against the run-length servicer.
func (m *Model) PathServiceBound(n int) uint64 {
	cpd := uint64(m.cfg.CPUCyclesPerDRAMCycle)
	perChan := (uint64(n) + uint64(m.cfg.Channels) - 1) / uint64(m.cfg.Channels)
	lat := uint64(m.cfg.TRP+m.cfg.TWR+m.cfg.TRCD+m.cfg.TCAS) * cpd
	return perChan * (lat + uint64(m.cfg.TBurst)*cpd)
}
