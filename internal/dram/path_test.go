package dram

import (
	"testing"

	"iroram/internal/config"
	"iroram/internal/rng"
)

// servicePath groups phys (each address offset by off) into runs and
// services them in one direction: the two steps of every production read
// or write phase.
func servicePath(m *Model, now uint64, phys []uint64, off uint64, write bool) uint64 {
	return m.ServiceRuns(now, m.AppendRuns(phys, off, nil), write)
}

// postWritePath groups phys into runs and drains them as one posted write
// phase.
func postWritePath(m *Model, now uint64, phys []uint64, off uint64) uint64 {
	return m.PostWriteRuns(now, m.AppendRuns(phys, off, nil))
}

// TestServicePathMatchesServiceBatch drives two models through the same
// randomized phase sequence — one via the per-address []Access oracle, one
// via run lists built from the zero-copy []uint64 address list — and
// requires identical completion times, statistics and channel state. The
// run-length service is the hot-path twin of ServiceBatch/PostWrites; any
// timing divergence would silently change every experiment table.
func TestServicePathMatchesServiceBatch(t *testing.T) {
	cfg := config.Scaled().DRAM
	batch := New(cfg)
	path := New(cfg)
	r := rng.New(31)
	const off = uint64(1 << 18)

	now := uint64(0)
	for iter := 0; iter < 300; iter++ {
		n := 1 + int(r.Uint64n(60))
		phys := make([]uint64, n)
		accs := make([]Access, n)
		write := r.Uint64n(4) == 0
		for i := range phys {
			phys[i] = r.Uint64n(1 << 20)
			accs[i] = Access{Addr: phys[i] + off, Write: write}
		}
		dBatch := batch.ServiceBatch(now, accs)
		dPath := servicePath(path, now, phys, off, write)
		if dBatch != dPath {
			t.Fatalf("iter %d: service time diverges: batch %d, path %d", iter, dBatch, dPath)
		}
		pBatch := batch.PostWrites(dBatch, accs)
		pPath := postWritePath(path, dPath, phys, off)
		if pBatch != pPath {
			t.Fatalf("iter %d: post-write drain diverges: batch %d, path %d", iter, pBatch, pPath)
		}
		now = dBatch + r.Uint64n(2000)
	}
	if batch.Stats() != path.Stats() {
		t.Fatalf("stats diverge:\nbatch %+v\npath  %+v", batch.Stats(), path.Stats())
	}
	if batch.freeAt() != path.freeAt() {
		t.Fatalf("channel state diverges: batch free at %d, path free at %d",
			batch.freeAt(), path.freeAt())
	}
}

// TestServicePathEmpty pins the no-op contract shared with ServiceBatch.
func TestServicePathEmpty(t *testing.T) {
	m := New(config.Scaled().DRAM)
	if got := servicePath(m, 42, nil, 0, false); got != 42 {
		t.Fatalf("empty read phase = %d, want 42", got)
	}
	if got := postWritePath(m, 42, nil, 0); got != 42 {
		t.Fatalf("empty posted write phase = %d, want 42", got)
	}
	if m.Stats() != (Stats{}) {
		t.Fatalf("empty phases touched stats: %+v", m.Stats())
	}
}

func benchAddrs(n int) []uint64 {
	phys := make([]uint64, n)
	for i := range phys {
		phys[i] = uint64(i * 37)
	}
	return phys
}

// BenchmarkServicePath measures one path-sized read phase from its
// physical address list: the run-list build into a reused buffer plus its
// service.
func BenchmarkServicePath(b *testing.B) {
	m := New(config.Scaled().DRAM)
	phys := benchAddrs(44)
	var runs []Run
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		runs = m.AppendRuns(phys, 0, runs[:0])
		now = m.ServiceRuns(now, runs, false)
	}
}

// serviceRunsRig builds the run list of one path-sized read phase once.
// Its op services that list: the charge half of a path phase, without the
// address decomposition of the build.
func serviceRunsRig() func() {
	m := New(config.Scaled().DRAM)
	runs := m.AppendRuns(benchAddrs(44), 0, nil)
	var now uint64
	return func() { now = m.ServiceRuns(now, runs, false) }
}

func BenchmarkServiceRuns(b *testing.B) {
	op := serviceRunsRig()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestServiceRunsZeroAllocs gates BenchmarkServiceRuns's op. Banks and
// channels are fixed arrays, so nothing is amortized.
func TestServiceRunsZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, serviceRunsRig()); avg != 0 {
		t.Errorf("run-length service allocates %.2f times per op, want 0", avg)
	}
}
