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
// direction; AppendRuns groups it into per-(channel,bank,row) runs (see
// Run), and the caller charges them with ServiceRuns (a read or write
// phase on bank timing) or PostWriteRuns (a posted write drain): one
// row-buffer transition plus one burst accumulation per run. The original
// per-address servicer lives on only in oracle_test.go, as the
// differential oracle: the randomized tests in this package require
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

	// Scratch for the run-length path service (reused, never shrunk).
	lastRun []int32  // per-channel index of the open run in AppendRuns
	chCount []uint64 // per-channel access counts for posted-write drains

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

// Stats returns a copy of the accumulated statistics.
func (m *Model) Stats() Stats { return m.stats }
