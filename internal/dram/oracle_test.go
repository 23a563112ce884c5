package dram

// This file holds the per-address DRAM servicer: the original
// one-transfer-at-a-time timing loop that the run-length service in
// runs.go replaced. Production code no longer runs it; it stays here as
// the differential oracle that runs_test.go, path_test.go, dram_test.go and
// dram_more_test.go compare ServiceRuns/PostWriteRuns against.
// Both must produce bit-identical timing, statistics and state evolution
// for the same access sequence.

// Access is one 64 B block transfer.
type Access struct {
	// Addr is the physical block address (in block units, as produced by
	// the tree's subtree layout).
	Addr uint64
	// Write selects the bus direction.
	Write bool
}

// freeAt returns the cycle at which every channel is idle, i.e. when all
// previously issued traffic has drained.
func (m *Model) freeAt() uint64 {
	var max uint64
	for i := range m.channels {
		if m.channels[i].freeAt > max {
			max = m.channels[i].freeAt
		}
	}
	return max
}

// decompose maps a physical block address to channel, bank and row using
// block-level channel interleaving (the USIMM default): consecutive blocks
// rotate across channels, so a row-aligned subtree is striped over all
// channels — every path batch gets full channel parallelism while each
// channel still sees one open row per subtree. It always divides, so the
// differential tests also pin AppendRuns' shift/mask arithmetic.
func (m *Model) decompose(addr uint64) (ch, bk int, row uint64) {
	ch = int(addr % uint64(m.cfg.Channels))
	rest := addr / uint64(m.cfg.Channels)
	rowID := rest / m.rowBlocks
	bk = int(rowID % uint64(m.cfg.BanksPerChannel))
	row = rowID / uint64(m.cfg.BanksPerChannel)
	return ch, bk, row
}

// ServiceBatch services the accesses of one path phase starting no earlier
// than now and returns the cycle at which the last transfer finishes.
//
// The model pipelines banks behind a shared per-channel data bus, the way
// DDR controllers do: a row miss charges precharge (+ write recovery) and
// activate on the *bank*, which overlaps with other banks' data transfers;
// only the tBURST data beats serialize on the channel bus. Channel cursors
// persist across batches, so a batch issued while an earlier one is
// draining queues behind it — which is how dummy-path contention delays
// demand requests.
func (m *Model) ServiceBatch(now uint64, accs []Access) uint64 {
	if len(accs) == 0 {
		return now
	}
	done := now
	for i := range accs {
		if finish := m.serviceOne(now, accs[i].Addr, accs[i].Write); finish > done {
			done = finish
		}
	}
	return done
}

// serviceOne charges one block transfer issued at now and returns when its
// data beats finish on the channel bus.
func (m *Model) serviceOne(now uint64, addr uint64, write bool) uint64 {
	chIdx, bkIdx, row := m.decompose(addr)
	ch := &m.channels[chIdx]
	b := &ch.banks[bkIdx]

	if b.openRow == row {
		m.stats.RowHits++
	} else {
		m.stats.RowMisses++
		// The controller knows a path's full address list when it
		// issues, so the MC opens rows ahead of the data transfers:
		// precharge+activate chains from when the bank last moved
		// data, not from the batch start. In steady state activation
		// latency hides behind the previous path's bursts; only the
		// per-block bus occupancy remains — the quantity IR-Alloc cuts.
		start := b.lastData
		if b.openRow != noRow {
			start += m.t.pre
			if b.lastWrite {
				start += m.t.wr
			}
		}
		b.avail = start + m.t.rcd + m.t.cas
		b.openRow = row
	}
	// Data for this access can appear no earlier than the row being
	// open (b.avail) and no earlier than a column command issued now;
	// consecutive row hits pipeline and become bus-limited.
	dataReady := b.avail
	if min := now + m.t.cas; dataReady < min {
		dataReady = min
	}
	busStart := dataReady
	if busStart < ch.freeAt {
		busStart = ch.freeAt
	}
	finish := busStart + m.t.burst
	ch.freeAt = finish
	b.lastData = finish
	b.lastWrite = write
	m.stats.BusyCPUCycles += m.t.burst
	if write {
		m.stats.Writes++
	} else {
		m.stats.Reads++
	}
	return finish
}

// PostWrites queues a write batch the way an FR-FCFS controller's write
// buffer drains it: the transfers occupy the channel data buses (delaying
// everything issued later) but do not close rows or block later reads on
// bank timing — reads are prioritized over buffered writes, and ORAM write
// phases target the rows the read phase just opened. It returns the cycle
// the last write drains.
func (m *Model) PostWrites(now uint64, accs []Access) uint64 {
	if len(accs) == 0 {
		return now
	}
	done := now
	for i := range accs {
		if freeAt := m.postOne(now, accs[i].Addr); freeAt > done {
			done = freeAt
		}
	}
	return done
}

// postOne drains one buffered write onto addr's channel bus and returns when
// that channel goes idle.
func (m *Model) postOne(now uint64, addr uint64) uint64 {
	ch := &m.channels[int(addr%uint64(m.cfg.Channels))]
	start := ch.freeAt
	if start < now {
		start = now
	}
	ch.freeAt = start + m.t.burst
	m.stats.BusyCPUCycles += m.t.burst
	m.stats.Writes++
	m.stats.RowHits++ // write phases target the rows the read opened
	return ch.freeAt
}
