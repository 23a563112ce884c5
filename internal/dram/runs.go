package dram

import "iroram/internal/flight"

// This file implements run-length service, the model's only timing code.
// The subtree data layout guarantees that a path's physical addresses
// arrive in long same-(channel,bank,row) stretches; a per-address loop
// would recompute that structure on every block. The run iterator below
// pays one address decomposition per block when a run list is built, and
// one row-buffer state transition plus one burst accumulation per run when
// it is serviced.
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
		// address, which would dominate the run-list build.
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
// run list (AppendRuns), starting no earlier than now, and returns the
// cycle at which the last transfer finishes on its channel bus. Timing,
// statistics and channel/bank state evolution are identical to servicing
// the per-address expansion of the runs one transfer at a time.
//
// The model pipelines banks behind a shared per-channel data bus, the way
// DDR controllers do: a row miss charges precharge (+ write recovery) and
// activate on the *bank*, which overlaps with other banks' data transfers;
// only the tBURST data beats serialize on the channel bus. Channel cursors
// persist across phases, so a phase issued while an earlier one is
// draining queues behind it — which is how dummy-path contention delays
// demand requests.
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

// PostWriteRuns queues one write phase given its precomputed run list
// (AppendRuns) the way an FR-FCFS controller's write buffer drains it: the
// transfers occupy the channel data buses (delaying everything issued
// later) but do not close rows or block later reads on bank timing — reads
// are prioritized over buffered writes, and ORAM write phases target the
// rows the read phase just opened. It returns the cycle the last write
// drains (informational; callers normally don't wait on it). A path's read
// and write phases move the same blocks, so the caller can charge both
// from one run list.
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
