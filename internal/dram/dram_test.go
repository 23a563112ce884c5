package dram

import (
	"testing"
	"testing/quick"

	"iroram/internal/config"
)

func testCfg() config.DRAM {
	return config.Scaled().DRAM
}

func reads(addrs ...uint64) []Access {
	accs := make([]Access, len(addrs))
	for i, a := range addrs {
		accs[i] = Access{Addr: a}
	}
	return accs
}

func TestEmptyBatchIsFree(t *testing.T) {
	m := New(testCfg())
	if got := m.ServiceBatch(100, nil); got != 100 {
		t.Errorf("empty batch completed at %d, want 100", got)
	}
}

func TestRowHitCheaperThanMiss(t *testing.T) {
	m := New(testCfg())
	// Two blocks on the same channel and row: the second is a row hit.
	t0 := m.ServiceBatch(0, reads(0))
	t1 := m.ServiceBatch(t0, reads(uint64(testCfg().Channels)))
	hitCost := t1 - t0
	if hitCost >= t0 {
		t.Errorf("row hit cost %d not cheaper than first access %d", hitCost, t0)
	}
	s := m.Stats()
	if s.RowHits != 1 || s.RowMisses != 1 {
		t.Errorf("stats %+v, want 1 hit / 1 miss", s)
	}
}

func TestRowConflictCostsPrecharge(t *testing.T) {
	cfg := testCfg()
	m := New(cfg)
	rowBlocks := m.RowBlocks()
	chans, banks := uint64(cfg.Channels), uint64(cfg.BanksPerChannel)
	// Same channel, same bank, different row.
	a := uint64(0)
	b := chans * rowBlocks * banks
	t0 := m.ServiceBatch(0, reads(a))
	t1 := m.ServiceBatch(t0, reads(b))
	conflictCost := t1 - t0
	if conflictCost <= t0 {
		t.Errorf("row conflict cost %d should exceed cold access %d", conflictCost, t0)
	}
}

func TestChannelParallelism(t *testing.T) {
	cfg := testCfg()
	m := New(cfg)
	// One block per channel: they overlap, so the batch should take about
	// one access time rather than Channels x access time.
	var accs []Access
	for c := 0; c < cfg.Channels; c++ {
		accs = append(accs, Access{Addr: uint64(c)})
	}
	parallel := m.ServiceBatch(0, accs)
	single := New(cfg).ServiceBatch(0, reads(0))
	if parallel != single {
		t.Errorf("parallel batch took %d, want %d (one access)", parallel, single)
	}
}

func TestSameChannelSerializes(t *testing.T) {
	cfg := testCfg()
	m := New(cfg)
	stride := uint64(cfg.Channels) * m.RowBlocks() // same channel, next bank
	done := m.ServiceBatch(0, reads(0, stride, 2*stride))
	single := New(cfg).ServiceBatch(0, reads(0))
	if done < 3*uint64(cfg.TBurst)*uint64(cfg.CPUCyclesPerDRAMCycle) {
		t.Errorf("3 same-channel accesses finished implausibly fast: %d", done)
	}
	if done <= single {
		t.Errorf("3 accesses (%d) should take longer than 1 (%d)", done, single)
	}
}

func TestBatchQueuesBehindEarlierTraffic(t *testing.T) {
	m := New(testCfg())
	first := m.ServiceBatch(0, reads(0, 1, 2, 3, 4, 5, 6, 7))
	// A batch issued at cycle 0 while the first is draining must not
	// complete before the first.
	second := m.ServiceBatch(0, reads(8))
	if second <= first-8*uint64(testCfg().TBurst) {
		t.Errorf("second batch at %d ignored queueing behind first at %d", second, first)
	}
	if m.freeAt() != second {
		t.Errorf("freeAt = %d, want %d", m.freeAt(), second)
	}
}

func TestWriteRecoveryCharged(t *testing.T) {
	cfg := testCfg()
	rowStride := uint64(cfg.Channels) * uint64(cfg.RowBytes/config.BlockSize) * uint64(cfg.BanksPerChannel)

	afterRead := New(cfg)
	t0 := afterRead.ServiceBatch(0, reads(0))
	readThenConflict := afterRead.ServiceBatch(t0, reads(rowStride)) - t0

	afterWrite := New(cfg)
	t1 := afterWrite.ServiceBatch(0, []Access{{Addr: 0, Write: true}})
	writeThenConflict := afterWrite.ServiceBatch(t1, reads(rowStride)) - t1

	if writeThenConflict <= readThenConflict {
		t.Errorf("conflict after write (%d) should cost more than after read (%d)",
			writeThenConflict, readThenConflict)
	}
}

func TestStatsCountReadsWrites(t *testing.T) {
	m := New(testCfg())
	ch := uint64(testCfg().Channels)
	m.ServiceBatch(0, []Access{{Addr: 0}, {Addr: ch, Write: true}, {Addr: 2 * ch, Write: true}})
	s := m.Stats()
	if s.Reads != 1 || s.Writes != 2 {
		t.Errorf("reads/writes = %d/%d, want 1/2", s.Reads, s.Writes)
	}
	if s.RowHitRate() <= 0 {
		t.Error("expected some row hits for sequential addresses")
	}
}

func TestCompletionMonotoneInBatchSize(t *testing.T) {
	check := func(seed uint64, n8 uint8) bool {
		n := int(n8%32) + 1
		cfg := testCfg()
		a := New(cfg)
		b := New(cfg)
		accs := make([]Access, n)
		x := seed
		for i := range accs {
			x = x*6364136223846793005 + 1442695040888963407
			accs[i] = Access{Addr: x % (1 << 20), Write: x&1 == 0}
		}
		ta := a.ServiceBatch(0, accs)
		tb := b.ServiceBatch(0, accs[:n/2+1])
		return tb <= ta
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestDeterministic(t *testing.T) {
	run := func() uint64 {
		m := New(testCfg())
		var done uint64
		for i := 0; i < 50; i++ {
			done = m.ServiceBatch(done, reads(uint64(i*37)%4096, uint64(i*113)%4096))
		}
		return done
	}
	if run() != run() {
		t.Error("model is not deterministic")
	}
}

func TestRowHitRateEmpty(t *testing.T) {
	if (Stats{}).RowHitRate() != 0 {
		t.Error("empty stats should report 0 hit rate")
	}
}

func TestSubtreeRowLocality(t *testing.T) {
	// A row-sized sequential batch stripes across channels: one row miss
	// per channel, everything else hits.
	m := New(testCfg())
	var accs []Access
	for i := uint64(0); i < m.RowBlocks(); i++ {
		accs = append(accs, Access{Addr: i})
	}
	m.ServiceBatch(0, accs)
	s := m.Stats()
	if s.RowMisses != uint64(testCfg().Channels) {
		t.Errorf("row misses = %d, want one per channel (%d)", s.RowMisses, testCfg().Channels)
	}
}
