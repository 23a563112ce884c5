package dram

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// tinyRowCfg is a deliberately cramped geometry: 2 channels, 2 banks,
// 4 blocks per row. With block-interleaved channels a 6-block bucket spans
// more than one row on each channel, so every test below exercises runs
// that break mid-bucket.
func tinyRowCfg() config.DRAM {
	cfg := config.Tiny().DRAM
	cfg.Channels = 2
	cfg.BanksPerChannel = 2
	cfg.RowBytes = 4 * config.BlockSize
	return cfg
}

// oddGeomCfg is a non-power-of-two geometry (3 channels, 6 banks, 5-block
// rows): AppendRuns must take its division fallback instead of the
// shift/mask fast path, pinning the pow2 branch selection in New.
func oddGeomCfg() config.DRAM {
	cfg := config.Tiny().DRAM
	cfg.Channels = 3
	cfg.BanksPerChannel = 6
	cfg.RowBytes = 5 * config.BlockSize
	return cfg
}

// expand converts a physical address list into the per-address oracle's
// input form.
func expand(phys []uint64, off uint64, write bool) []Access {
	accs := make([]Access, len(phys))
	for i, a := range phys {
		accs[i] = Access{Addr: a + off, Write: write}
	}
	return accs
}

// diffStep services one phase on both models — runs on one, per-address on
// the other — and fails on any divergence in completion time.
func diffStep(t *testing.T, iter int, runs, oracle *Model, now uint64, phys []uint64, off uint64, write bool) uint64 {
	t.Helper()
	dRuns := servicePath(runs, now, phys, off, write)
	dOracle := oracle.ServiceBatch(now, expand(phys, off, write))
	if dRuns != dOracle {
		t.Fatalf("iter %d: service time diverges: run-length %d, per-address %d",
			iter, dRuns, dOracle)
	}
	pRuns := postWritePath(runs, dRuns, phys, off)
	pOracle := oracle.PostWrites(dOracle, expand(phys, off, false))
	if pRuns != pOracle {
		t.Fatalf("iter %d: post-write drain diverges: run-length %d, per-address %d",
			iter, pRuns, pOracle)
	}
	return dRuns
}

// diffState fails on any statistics or channel-state divergence between the
// run-length model and the per-address oracle.
func diffState(t *testing.T, runs, oracle *Model) {
	t.Helper()
	if runs.Stats() != oracle.Stats() {
		t.Fatalf("stats diverge:\nrun-length  %+v\nper-address %+v", runs.Stats(), oracle.Stats())
	}
	if runs.freeAt() != oracle.freeAt() {
		t.Fatalf("channel state diverges: run-length free at %d, per-address free at %d",
			runs.freeAt(), oracle.freeAt())
	}
}

// TestRunLengthDifferentialRandom is the randomized run-length-vs-
// per-address differential: arbitrary address soup (worst case for run
// formation — most runs have length 1) under mixed read/write phases and
// idle gaps must time out identically on both implementations. Run with
// -race as part of `make race`.
func TestRunLengthDifferentialRandom(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  config.DRAM
		span uint64
	}{
		{"scaled", config.Scaled().DRAM, 1 << 20},
		{"tinyrow", tinyRowCfg(), 1 << 10},
		{"oddgeom", oddGeomCfg(), 1 << 14},
	} {
		t.Run(tc.name, func(t *testing.T) {
			runs := New(tc.cfg)
			oracle := New(tc.cfg)
			r := rng.New(77)
			now := uint64(0)
			for iter := 0; iter < 400; iter++ {
				n := 1 + int(r.Uint64n(70))
				phys := make([]uint64, n)
				for i := range phys {
					phys[i] = r.Uint64n(tc.span)
				}
				off := r.Uint64n(1 << 16)
				write := r.Uint64n(4) == 0
				done := diffStep(t, iter, runs, oracle, now, phys, off, write)
				now = done + r.Uint64n(1500)
			}
			diffState(t, runs, oracle)
		})
	}
}

// TestRunLengthDifferentialPathLike feeds both implementations sequences
// shaped like real subtree-laid-out paths: sorted bucket-granular stretches
// with occasional jumps. These produce long runs — the case the run-length
// servicer actually collapses — and must still match the oracle exactly.
func TestRunLengthDifferentialPathLike(t *testing.T) {
	cfg := config.Scaled().DRAM
	runs := New(cfg)
	oracle := New(cfg)
	r := rng.New(99)
	now := uint64(0)
	for iter := 0; iter < 300; iter++ {
		var phys []uint64
		base := r.Uint64n(1 << 22)
		for len(phys) < 44 {
			// One contiguous stretch (a subtree chunk's worth of blocks),
			// then jump to a new region like PathPhys does between chunks.
			stretch := 4 + int(r.Uint64n(16))
			for j := 0; j < stretch && len(phys) < 44; j++ {
				phys = append(phys, base+uint64(j))
			}
			base += uint64(stretch) + r.Uint64n(1<<18)
		}
		done := diffStep(t, iter, runs, oracle, now, phys, 0, iter%5 == 0)
		now = done + r.Uint64n(800)
	}
	diffState(t, runs, oracle)
}

// TestRunLengthDifferentialRingShapes feeds both implementations the
// address lists the controller builds outside Path ORAM paths, on real
// subtree layouts: a Ring ORAM read (one bucket base per memory level, plus
// the in-bucket re-reads base + j%z, j < z+S, of every early reshuffle), a
// contiguous run of slots (Ring's reshuffle write-back and its eviction
// path's levels×S dummy slots), and a context-switch tree-top spill
// serviced with write=true and then read back. Unlike the random soup
// above, these lists repeat addresses within one phase and revisit rows
// the previous phase left open, and they must still match the oracle
// exactly. Ordinary path phases are interleaved so bank state is realistic.
func TestRunLengthDifferentialRingShapes(t *testing.T) {
	ringS := config.RingScheme().RingS
	for _, tc := range []struct {
		name string
		sys  config.System
		dram config.DRAM
	}{
		{"scaled", config.Scaled(), config.Scaled().DRAM},
		{"tinyrow", config.Tiny(), tinyRowCfg()},
		{"oddgeom", config.Tiny(), oddGeomCfg()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := tc.sys.ORAM
			minLevel := o.TopLevels
			runs := New(tc.dram)
			oracle := New(tc.dram)
			layout := tree.NewLayout(o, minLevel, int(runs.RowBlocks()))
			spillBase := layout.PhysicalSlots()
			spillSlots := 0
			for l := 0; l < minLevel; l++ {
				spillSlots += o.Z[l] << uint(l)
			}
			r := rng.New(55)
			now := uint64(0)
			var phys []uint64
			for iter := 0; iter < 150; iter++ {
				leaf := block.Leaf(r.Uint64n(o.LeafCount()))

				// Ring read with a random subset of early reshuffles.
				phys = phys[:0]
				writes := 0
				for l := minLevel; l < o.Levels; l++ {
					base, z := layout.BucketPhys(l, leaf)
					phys = append(phys, base)
					if r.Uint64n(3) == 0 {
						for j := 0; j < z+ringS; j++ {
							phys = append(phys, base+uint64(j%z))
						}
						writes += z + ringS
					}
				}
				now = diffStep(t, iter, runs, oracle, now, phys, 0, false) + r.Uint64n(400)

				// Contiguous slot runs: the reshuffle write-back, then the
				// eviction path's dummy slots, both from the leaf bucket.
				leafBase, _ := layout.BucketPhys(o.Levels-1, leaf)
				for _, n := range []int{writes, (o.Levels - minLevel) * ringS} {
					phys = phys[:0]
					for j := 0; j < n; j++ {
						phys = append(phys, leafBase+uint64(j))
					}
					now = diffStep(t, iter, runs, oracle, now, phys, 0, r.Uint64n(2) == 0)
				}

				// An ordinary path phase between protocol shapes.
				phys = layout.PathPhys(leaf, phys[:0])
				now = diffStep(t, iter, runs, oracle, now, phys, 0, false) + r.Uint64n(800)

				// Occasionally a context switch: spill the tree top, then
				// reload it.
				if iter%10 == 0 {
					phys = phys[:0]
					for j := 0; j < spillSlots; j++ {
						phys = append(phys, spillBase+uint64(j))
					}
					now = diffStep(t, iter, runs, oracle, now, phys, 0, true)
					now = diffStep(t, iter, runs, oracle, now, phys, 0, false)
				}
			}
			diffState(t, runs, oracle)
		})
	}
}

// TestRunRowBoundaryMidBucket pins the timing edge where a bucket's blocks
// straddle a DRAM row boundary: on the cramped geometry each channel's run
// must end exactly at the row edge and the next block must pay a fresh
// row transition (in the neighbouring bank, since rows interleave across
// banks), identically in both implementations.
func TestRunRowBoundaryMidBucket(t *testing.T) {
	cfg := tinyRowCfg()
	// rowBlocks = 4, Channels = 2: channel 0 sees blocks 4,6,8 as per-channel
	// offsets 2,3,4 — its row boundary falls between 7 and 8, mid-way through
	// the contiguous 6-block "bucket" starting at address 4.
	phys := []uint64{4, 5, 6, 7, 8, 9}
	runs := New(cfg)
	oracle := New(cfg)
	diffStep(t, 0, runs, oracle, 0, phys, 0, false)
	diffState(t, runs, oracle)
	st := runs.Stats()
	// Read phase: channel 0 sees 4,6 (bank 0 row 0: miss+hit) then 8
	// (bank 1 row 0: miss); channel 1 mirrors with 5,7,9. That is 4 cold
	// transitions + 2 hits; the post-write drain adds 6 more row hits.
	if st.RowMisses != 4 || st.RowHits != 2+6 {
		t.Fatalf("row boundary mid-bucket: got %d misses / %d hits, want 4 / 8", st.RowMisses, st.RowHits)
	}
	// Re-reading the same bucket finds every row still open — and must again
	// time out identically in both implementations.
	diffStep(t, 1, runs, oracle, runs.freeAt(), phys, 0, false)
	diffState(t, runs, oracle)
	if st2 := runs.Stats(); st2.RowMisses != st.RowMisses {
		t.Fatalf("re-read missed rows: %d misses, want %d", st2.RowMisses, st.RowMisses)
	}
}

// TestRunBankConflictWrap pins the edge where successive path chunks wrap
// back onto the same bank with a different row (a bank conflict) across all
// channels: the second chunk's row transition must chain off the first
// chunk's last data transfer, identically in both implementations.
func TestRunBankConflictWrap(t *testing.T) {
	cfg := tinyRowCfg()
	// With 2 channels, 2 banks, 4-block rows, a channel's bank cycle is
	// banks*rowBlocks = 8 per-channel offsets = 16 addresses. Addresses
	// 0..7 open (bank 0, row 0) on both channels; 16..23 re-open bank 0 at
	// row 1 — the same bank with a different row, on every channel.
	first := []uint64{0, 1, 2, 3, 4, 5, 6, 7}
	second := []uint64{16, 17, 18, 19, 20, 21, 22, 23}
	runs := New(cfg)
	oracle := New(cfg)
	done := diffStep(t, 0, runs, oracle, 0, first, 0, false)
	firstMisses := runs.Stats().RowMisses
	diffStep(t, 1, runs, oracle, done, second, 0, true)
	diffState(t, runs, oracle)
	st := runs.Stats()
	// First phase: one cold open of bank 0 per channel. Second phase: one
	// conflict transition of bank 0 per channel (precharge + re-activate
	// chained off the first phase's last data beat).
	if firstMisses != 2 || st.RowMisses != 4 {
		t.Fatalf("bank-conflict wrap: got %d then %d row misses, want 2 then 4",
			firstMisses, st.RowMisses)
	}
}

// pathServiceBound returns an upper bound on the CPU cycles one path phase
// of n blocks takes on an idle memory system: the bound that shows the
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
func (m *Model) pathServiceBound(n int) uint64 {
	cpd := uint64(m.cfg.CPUCyclesPerDRAMCycle)
	perChan := (uint64(n) + uint64(m.cfg.Channels) - 1) / uint64(m.cfg.Channels)
	lat := uint64(m.cfg.TRP+m.cfg.TWR+m.cfg.TRCD+m.cfg.TCAS) * cpd
	return perChan * (lat + uint64(m.cfg.TBurst)*cpd)
}

// TestPathServiceBoundDominatesRunLength pins pathServiceBound as an upper
// bound on the run-length servicer for real subtree-laid-out paths on a
// cold, idle model: no path may take longer than the bound used to size
// the timing-protection interval T. (The bound's premise is a path's
// row-local address structure; arbitrary address soup can conflict its way
// past it, with either servicer.)
func TestPathServiceBoundDominatesRunLength(t *testing.T) {
	sys := config.Scaled()
	layout := tree.NewLayout(sys.ORAM, sys.ORAM.TopLevels, int(New(sys.DRAM).RowBlocks()))
	r := rng.New(123)
	var phys []uint64
	for iter := 0; iter < 200; iter++ {
		m := New(sys.DRAM) // idle, cold rows — the bound's premise
		leaf := block.Leaf(r.Uint64n(sys.ORAM.LeafCount()))
		phys = layout.PathPhys(leaf, phys[:0])
		took := servicePath(m, 0, phys, 0, iter%2 == 0)
		if bound := m.pathServiceBound(len(phys)); took > bound {
			t.Fatalf("iter %d leaf %d: run-length service of %d blocks took %d cycles, bound %d",
				iter, leaf, len(phys), took, bound)
		}
	}
}

// TestAppendRunsPreservesChannelOrder pins the structural contract: the
// per-address expansion of the run list is, per channel, exactly the input
// address sequence of that channel, and run boundaries only occur at
// (bank,row) changes.
func TestAppendRunsPreservesChannelOrder(t *testing.T) {
	cfg := tinyRowCfg()
	m := New(cfg)
	r := rng.New(5)
	for iter := 0; iter < 100; iter++ {
		n := 1 + int(r.Uint64n(50))
		phys := make([]uint64, n)
		for i := range phys {
			phys[i] = r.Uint64n(1 << 12)
		}
		runs := m.AppendRuns(phys, 0, nil)
		// Rebuild each channel's (bank,row) sequence from the runs and from
		// the raw addresses; they must match element for element.
		type br struct {
			bank uint16
			row  uint64
		}
		var want, got [][]br
		want = make([][]br, cfg.Channels)
		got = make([][]br, cfg.Channels)
		for _, a := range phys {
			ch, bk, row := m.decompose(a)
			want[ch] = append(want[ch], br{uint16(bk), row})
		}
		var total uint32
		for _, ru := range runs {
			total += ru.Count
			for k := uint32(0); k < ru.Count; k++ {
				got[ru.Ch] = append(got[ru.Ch], br{ru.Bank, ru.Row})
			}
		}
		if int(total) != n {
			t.Fatalf("iter %d: runs cover %d accesses, want %d", iter, total, n)
		}
		for c := range want {
			if len(want[c]) != len(got[c]) {
				t.Fatalf("iter %d: channel %d has %d accesses in runs, want %d",
					iter, c, len(got[c]), len(want[c]))
			}
			for i := range want[c] {
				if want[c][i] != got[c][i] {
					t.Fatalf("iter %d: channel %d access %d: run gives bank %d row %d, want bank %d row %d",
						iter, c, i, got[c][i].bank, got[c][i].row, want[c][i].bank, want[c][i].row)
				}
			}
		}
	}
}
