package dram

import (
	"fmt"

	"iroram/internal/flight"
)

// This file implements run-length service, the model's only timing code.
// The subtree data layout guarantees that a path's physical addresses
// arrive in long same-(channel,bank,row) stretches; a per-address loop
// would recompute that structure on every block. The run iterator below
// pays one address decomposition per block only when a run list is built,
// and one row-buffer state transition plus one burst accumulation per run
// when it is serviced — with dram.PathSched memoizing the built lists per
// leaf so repeat leaves skip the build entirely.
//
// Correctness argument: a single block transfer touches only the state of
// the channel (bus cursor) and bank (row buffer) its address maps to, and
// every access of one phase is issued at the same cycle `now` in the same
// direction. Order across channels therefore cannot affect
// timing, statistics, or final state — only the per-channel access order
// matters, and AppendRuns preserves it (runs are emitted in first-address
// order; a channel's runs form an in-order subsequence). Within one
// (bank,row) run of n accesses, the first transfer starts at
// max(bankAvail, now+tCAS, busFree) and the remaining n-1 pipeline
// bus-limited, so the run finishes exactly n*tBURST after the first
// transfer starts — the closed form ServiceRuns charges. That holds for any
// address list, so Ring ORAM and context-switch traffic use it too. The
// per-address servicer in oracle_test.go is the differential oracle; the
// randomized differentials in path_test.go and runs_test.go pin the
// equivalence.

// Run is one maximal stretch of consecutive same-channel path addresses
// that fall into the same DRAM bank and row. A path's run list is a pure
// function of its physical address list and the model geometry.
type Run struct {
	// Row is the row index within the bank.
	Row uint64
	// Count is the number of 64 B block transfers in the run.
	Count uint32
	// Ch and Bank locate the run's row buffer.
	Ch, Bank uint16
}

// AppendRuns maps the physical block addresses phys (each offset by off),
// in order, to channel, bank and row and groups them into per-channel
// (bank,row) runs appended to dst. Two accesses join the same run exactly
// when they are consecutive on their channel and hit the same bank and
// row; the emitted list preserves each channel's access order, which is
// all the timing model depends on.
func (m *Model) AppendRuns(phys []uint64, off uint64, dst []Run) []Run {
	for i := range m.lastRun {
		m.lastRun[i] = -1
	}
	if m.pow2 {
		// Power-of-two geometry (every preset): map with shifts and
		// masks — the division form below costs three 64-bit divides per
		// address, which dominates a cold (uncached) run-list build.
		chShift, rowShift, bkShift := m.chShift, m.rowShift, m.bkShift
		chMask, bkMask := m.chMask, m.bkMask
		for _, a := range phys {
			addr := a + off
			ch := addr & chMask
			rowID := (addr >> chShift) >> rowShift
			bk := rowID & bkMask
			row := rowID >> bkShift
			if j := m.lastRun[ch]; j >= 0 {
				if r := &dst[j]; r.Row == row && r.Bank == uint16(bk) {
					r.Count++
					continue
				}
			}
			m.lastRun[ch] = int32(len(dst))
			dst = append(dst, Run{Row: row, Count: 1, Ch: uint16(ch), Bank: uint16(bk)})
		}
		return dst
	}
	nCh := uint64(m.cfg.Channels)
	nBk := uint64(m.cfg.BanksPerChannel)
	for _, a := range phys {
		addr := a + off
		ch := addr % nCh
		rowID := (addr / nCh) / m.rowBlocks
		bk := rowID % nBk
		row := rowID / nBk
		if j := m.lastRun[ch]; j >= 0 {
			if r := &dst[j]; r.Row == row && r.Bank == uint16(bk) {
				r.Count++
				continue
			}
		}
		m.lastRun[ch] = int32(len(dst))
		dst = append(dst, Run{Row: row, Count: 1, Ch: uint16(ch), Bank: uint16(bk)})
	}
	return dst
}

// ServiceRuns services one read or write path phase given its precomputed
// run list, starting no earlier than now (see ServicePath for the bank and
// bus model). Timing, statistics and channel/bank state evolution are
// identical to servicing the per-address expansion of the runs one
// transfer at a time; the returned cycle is when the last transfer
// finishes on its channel bus.
func (m *Model) ServiceRuns(now uint64, runs []Run, write bool) uint64 {
	done := now
	var total, hits, misses uint64
	// Timing parameters and stats accumulate in locals: the run loop is the
	// hottest few instructions of the simulator and per-run read-modify-
	// writes through the Model pointer cost measurably more.
	pre, wr, rcdcas, burst := m.t.pre, m.t.wr, m.t.rcd+m.t.cas, m.t.burst
	minBus := now + m.t.cas
	armed := m.fl.Armed()
	for i := range runs {
		r := &runs[i]
		ch := &m.channels[r.Ch]
		b := &ch.banks[r.Bank]
		n := uint64(r.Count)
		total += n
		rowHit := b.openRow == r.Row
		if rowHit {
			hits += n
		} else {
			// Row transition once per run; the n-1 follow-up transfers hit
			// the row the first one opened. The MC knows the phase's whole
			// address list, so precharge+activate chains from when the bank
			// last moved data, not from the phase start: in steady state
			// only the per-block bus occupancy remains.
			misses++
			hits += n - 1
			start := b.lastData
			if b.openRow != noRow {
				start += pre
				if b.lastWrite {
					start += wr
				}
			}
			b.avail = start + rcdcas
			b.openRow = r.Row
		}
		// First transfer: row open, column command issued now, bus free.
		// The rest of the run pipelines bus-limited behind it.
		busStart := b.avail
		if busStart < minBus {
			busStart = minBus
		}
		if busStart < ch.freeAt {
			busStart = ch.freeAt
		}
		finish := busStart + n*burst
		ch.freeAt = finish
		b.lastData = finish
		b.lastWrite = write
		if finish > done {
			done = finish
		}
		if armed {
			sub := uint8(0)
			if rowHit {
				sub = 1
			}
			m.fl.Record(flight.Event{Start: busStart, End: finish,
				Arg: r.Row, Aux: n, Kind: flight.KindDramRun,
				Sub: sub, Ch: r.Ch, Bank: r.Bank})
		}
	}
	m.stats.RowHits += hits
	m.stats.RowMisses += misses
	m.stats.BusyCPUCycles += total * burst
	if write {
		m.stats.Writes += total
	} else {
		m.stats.Reads += total
	}
	return done
}

// PostWriteRuns drains one posted write phase given its precomputed run
// list — PostWritePath for a memoized schedule: per-channel bus occupancy
// only, no bank timing (see PostWritePath for the FR-FCFS rationale).
func (m *Model) PostWriteRuns(now uint64, runs []Run) uint64 {
	if len(runs) == 0 {
		return now
	}
	for i := range m.chCount {
		m.chCount[i] = 0
	}
	for i := range runs {
		m.chCount[runs[i].Ch] += uint64(runs[i].Count)
	}
	return m.drainCounts(now)
}

// drainCounts applies m.chCount buffered writes per channel starting no
// earlier than now and returns when the last channel goes idle.
func (m *Model) drainCounts(now uint64) uint64 {
	done := now
	armed := m.fl.Armed()
	for c := range m.channels {
		n := m.chCount[c]
		if n == 0 {
			continue
		}
		ch := &m.channels[c]
		start := ch.freeAt
		if start < now {
			start = now
		}
		ch.freeAt = start + n*m.t.burst
		m.stats.BusyCPUCycles += n * m.t.burst
		m.stats.Writes += n
		m.stats.RowHits += n // write phases target the rows the read opened
		if ch.freeAt > done {
			done = ch.freeAt
		}
		if armed {
			m.fl.Record(flight.Event{Start: start, End: ch.freeAt,
				Aux: n, Kind: flight.KindDramDrain, Ch: uint16(c)})
		}
	}
	return done
}

// PathSched is a direct-mapped, per-leaf memo of path run lists for one
// tree layout (identified by its physical base offset). The run structure
// of a path is a pure function of (leaf, layout, model geometry), so repeat
// leaves service straight from the table — no address generation, no
// decomposition. Storage is preallocated flat at construction, so steady-
// state fills are allocation-free. Model.Reset invalidates every schedule
// created from it (the cached structure is geometry-dependent state).
type PathSched struct {
	m       *Model
	off     uint64
	mask    uint64
	maxRuns int
	tags    []uint64 // leaf+1; 0 marks an empty slot
	lens    []uint32
	runs    []Run // slot i owns runs[i*maxRuns : (i+1)*maxRuns]

	// Hits and Misses count Lookup outcomes (observability + tests).
	Hits, Misses uint64
}

// NewPathSched creates a schedule cache with at least slots direct-mapped
// entries (rounded up to a power of two), for paths of at most maxRuns runs
// — maxRuns = the path's block count is always a safe bound. off is the
// layout's physical base, added to every address at build time. The cache
// is registered with the model: Model.Reset invalidates it.
func (m *Model) NewPathSched(slots, maxRuns int, off uint64) *PathSched {
	if slots <= 0 || maxRuns <= 0 {
		panic(fmt.Sprintf("dram: PathSched slots %d / maxRuns %d must be positive", slots, maxRuns))
	}
	n := 1
	for n < slots {
		n <<= 1
	}
	s := &PathSched{
		m:       m,
		off:     off,
		mask:    uint64(n - 1),
		maxRuns: maxRuns,
		tags:    make([]uint64, n),
		lens:    make([]uint32, n),
		runs:    make([]Run, n*maxRuns),
	}
	m.scheds = append(m.scheds, s)
	return s
}

// Lookup returns the memoized run list of leaf, if present.
func (s *PathSched) Lookup(leaf uint64) ([]Run, bool) {
	i := leaf & s.mask
	if s.tags[i] != leaf+1 {
		s.Misses++
		return nil, false
	}
	s.Hits++
	base := int(i) * s.maxRuns
	return s.runs[base : base+int(s.lens[i])], true
}

// Install builds the run list for leaf from its physical address list,
// stores it in leaf's slot (evicting whatever leaf mapped there), and
// returns it. It panics if the path produces more than maxRuns runs, which
// would mean the caller's bound was not the path block count.
func (s *PathSched) Install(leaf uint64, phys []uint64) []Run {
	i := leaf & s.mask
	base := int(i) * s.maxRuns
	rs := s.m.AppendRuns(phys, s.off, s.runs[base:base:base+s.maxRuns])
	if len(rs) > s.maxRuns {
		panic(fmt.Sprintf("dram: path of %d blocks built %d runs, bound %d",
			len(phys), len(rs), s.maxRuns))
	}
	s.tags[i] = leaf + 1
	s.lens[i] = uint32(len(rs))
	return rs
}

// Invalidate empties the cache. Run lists depend on bank/row geometry, not
// on mutable model state, so invalidation is only needed when the backing
// model is reset wholesale (Model.Reset calls this).
func (s *PathSched) Invalidate() {
	for i := range s.tags {
		s.tags[i] = 0
	}
}
