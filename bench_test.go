package iroram

// The benchmark harness: one testing.B benchmark per paper table/figure
// (regenerating it at reduced scale and reporting its headline metric via
// b.ReportMetric), plus microbenchmarks of the core primitives. Full-scale
// regeneration is cmd/experiments; EXPERIMENTS.md records the
// paper-vs-measured values at the default scale.

import (
	"bytes"
	"fmt"

	"testing"

	"iroram/internal/block"
	"iroram/internal/cache"
	"iroram/internal/config"
	"iroram/internal/core"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/trace"
	"iroram/internal/tree"
)

// benchOpts is the reduced scale every figure benchmark runs at.
func benchOpts() ExperimentOptions {
	opts := QuickExperiments()
	opts.Requests = 1500
	opts.Benchmarks = []string{"gcc", "mcf", "lbm"}
	return opts
}

func reportTable(b *testing.B, tab *Table, row, series, metric string) {
	b.Helper()
	if v, ok := tab.Get(row, series); ok {
		b.ReportMetric(v, metric)
	}
}

func BenchmarkTable2MPKI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("table2", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "mcf", "read MPKI (sim)", "mcf-readMPKI")
	}
}

func BenchmarkFig02PathTypeDistribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig2", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "avg", "PTd", "PTd-share")
		reportTable(b, tab, "avg", "PTm", "PTm-share")
	}
}

func BenchmarkFig03Utilization(b *testing.B) {
	opts := benchOpts()
	opts.Requests = 3000
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig3", opts)
		if err != nil {
			b.Fatal(err)
		}
		levels := opts.Base.ORAM.Levels
		final := tab.Series[len(tab.Series)-1]
		b.ReportMetric(final.Values[levels-1], "leaf-util")
		b.ReportMetric(final.Values[levels-4], "mid-util")
	}
}

func BenchmarkFig04UtilizationPerBench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Experiment("fig4", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig05Migration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Experiment("fig5", benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig06TreeTopReuse(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig6", opts)
		if err != nil {
			b.Fatal(err)
		}
		top := opts.Base.ORAM.TopLevels
		reportTable(b, tab, tab.Rows[top-1], "cumulative", "top-hit-share")
	}
}

func BenchmarkFig07BlocksPerPath(b *testing.B) {
	opts := DefaultExperiments()
	opts.Base = PaperConfig() // pure arithmetic, full scale is free
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig7", opts)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "IR-Alloc (IR-ORAM profile)", "blocks/path", "PL")
	}
}

func BenchmarkFig10Performance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig10", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "gmean", "IR-ORAM", "iroram-speedup")
		reportTable(b, tab, "gmean", "IR-Alloc", "iralloc-speedup")
	}
}

// BenchmarkFig10ByJobs measures the parallel experiment engine: the same
// Fig 10 sweep fanned across 1, 2 and 4 workers. On a multicore host the
// wall-clock per op drops roughly linearly until the core count; the tables
// are byte-identical at every width (asserted by TestParallelDeterminism).
func BenchmarkFig10ByJobs(b *testing.B) {
	for _, jobs := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			opts := benchOpts()
			opts.Jobs = jobs
			for i := 0; i < b.N; i++ {
				if _, err := Experiment("fig10", opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFig11LLCD(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig11", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "gmean", "IR-Stash+IR-Alloc vs LLC-D", "combo-speedup")
	}
}

func BenchmarkFig12AllocConfigs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig12", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "mean", "IR-Alloc4", "alloc4-normtime")
	}
}

func BenchmarkFig13AllocUtilization(b *testing.B) {
	opts := benchOpts()
	opts.Requests = 3000
	for i := 0; i < b.N; i++ {
		if _, err := Experiment("fig13", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14PosMapReduction(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig14", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "mean", "normalized PosMap accesses", "posmap-ratio")
	}
}

func BenchmarkFig15DWBConversion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig15", benchOpts())
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "avg", "dummy (IR-DWB)", "dummy-share")
		reportTable(b, tab, "avg", "converted (IR-DWB)", "converted-share")
	}
}

func BenchmarkFig16Scalability(b *testing.B) {
	opts := benchOpts()
	opts.Requests = 1000
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("fig16", opts)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, tab.Rows[1], "speedup", "alloc-speedup")
	}
}

func BenchmarkAblationNoTimingProtection(b *testing.B) {
	opts := benchOpts()
	opts.Requests = 1000
	for i := 0; i < b.N; i++ {
		if _, err := Experiment("notp", opts); err != nil {
			b.Fatal(err)
		}
	}
}

// --- microbenchmarks of the core primitives ---

// BenchmarkPathAccess measures end-to-end demand accesses against a cold
// PLB (up to three path accesses each) on the tiny geometry.
func BenchmarkPathAccess(b *testing.B) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := core.NewController(cfg, mem, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	is := core.NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
	// Warm up out of the timed (and alloc-counted) region so scratch buffers
	// reach steady-state capacity; make check gates on allocs/op == 0 here.
	now := uint64(0)
	for i := 0; i < 2000; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	}
}

// BenchmarkEvict measures the single-pass write phase (path read into the
// stash + deepest-first eviction) without DRAM timing — the structures the
// PR 4 open-addressed stash index serves. Body in internal/core so
// cmd/benchjson snapshots the same code.
func BenchmarkEvict(b *testing.B) { core.EvictBenchmark(b) }

// BenchmarkTreeWalk measures one path round-trip over the bitmap-indexed
// tree alone: the occupancy-word walk removing every block on a path, then
// exact free-mask refills. Body in internal/tree so cmd/benchjson snapshots
// the same code.
func BenchmarkTreeWalk(b *testing.B) { tree.WalkBenchmark(b) }

// BenchmarkTopCacheFind measures the tree-top lookup mix (hit Find, miss
// Find, Remove+Fill churn) through the lazy address index. Body in
// internal/stash so cmd/benchjson snapshots the same code.
func BenchmarkTopCacheFind(b *testing.B) { stash.TopCacheFindBenchmark(b) }

// BenchmarkIRStashFill measures the S-Stash mix (set-conflict Fill refusal,
// LookupByAddr hit, RemoveByAddr+Fill churn) through the memoized MD5 set
// index. Body in internal/stash so cmd/benchjson snapshots the same code.
func BenchmarkIRStashFill(b *testing.B) { stash.IRStashFillBenchmark(b) }

// BenchmarkLLCAccess measures one LLC access-or-insert with LRU tracking
// enabled (the IR-DWB configuration: mask set indexing + summary refresh).
func BenchmarkLLCAccess(b *testing.B) { cache.AccessBenchmark(b) }

// BenchmarkDWBScan measures the Ptr-register candidate search with one
// dirty-LRU set among 1024 — the sweep the summary bitmaps collapse to a
// word-wise scan.
func BenchmarkDWBScan(b *testing.B) { cache.ScanBenchmark(b) }

// BenchmarkControllerInit measures tree construction + initial placement.
func BenchmarkControllerInit(b *testing.B) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	for i := 0; i < b.N; i++ {
		mem := dram.New(cfg.DRAM)
		if _, err := core.NewController(cfg, mem, rng.New(uint64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTraceGeneration measures synthetic record production.
func BenchmarkTraceGeneration(b *testing.B) {
	g := trace.MustBenchmark("xz", 1<<22, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := g.Next(); !ok {
			b.Fatal("exhausted")
		}
	}
}

// BenchmarkObliviousStoreAccess measures the functional Path ORAM with real
// crypto: one sealed path read+write per operation.
func BenchmarkObliviousStoreAccess(b *testing.B) {
	store, err := NewObliviousStore(ObliviousStoreConfig{
		Blocks: 4096, BlockSize: 64, Key: bytes.Repeat([]byte{1}, 32), Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	payload := []byte("benchmark-payload")
	r := rng.New(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := store.Write(r.Uint64n(4096), payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemesEndToEnd runs each scheme on a short mcf slice — the
// numbers mirror Fig 10's per-scheme cost at micro scale.
func BenchmarkSchemesEndToEnd(b *testing.B) {
	for _, sch := range AllSchemes() {
		b.Run(sch.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := RunBenchmark(TinyConfig().WithScheme(sch), "mcf", 1000)
				if err != nil {
					b.Fatal(err)
				}
				if i == 0 {
					b.ReportMetric(float64(res.Cycles), "sim-cycles")
				}
			}
		})
	}
}
