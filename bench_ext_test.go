package iroram

// Benchmarks for the extension studies (Ring ORAM integration, co-run
// interference, the Section IV-D future work, the Section VI-F energy
// model, and the design-choice ablations).

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/core"
	"iroram/internal/dram"
	"iroram/internal/rng"
)

func BenchmarkRingIntegration(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"dee"}
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("ring", opts)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "gmean", "Ring blk/acc", "ring-blk-per-acc")
	}
}

func BenchmarkCoRunInterference(b *testing.B) {
	opts := benchOpts()
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("corun", opts)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "gcc+mcf", "Baseline", "interference")
	}
}

func BenchmarkFutureWorkProactiveRemap(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"mcf"}
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("futurework", opts)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "gmean", "IR-ORAM/LLC-D", "proactive-speedup")
	}
}

func BenchmarkEnergyModel(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"dee"}
	for i := 0; i < b.N; i++ {
		tab, err := Experiment("energy", opts)
		if err != nil {
			b.Fatal(err)
		}
		reportTable(b, tab, "mean", "IR-ORAM energy", "energy-ratio")
	}
}

func BenchmarkAblationSStashAssoc(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"gcc"}
	for i := 0; i < b.N; i++ {
		if _, err := Experiment("ablation-sstash", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationInterval(b *testing.B) {
	opts := benchOpts()
	opts.Benchmarks = []string{"gcc"}
	opts.Requests = 800
	for i := 0; i < b.N; i++ {
		if _, err := Experiment("ablation-interval", opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkContextSwitch(b *testing.B) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := core.NewController(cfg, mem, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	is := core.NewIssuer(c, nil)
	r := rng.New(2)
	now := uint64(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = is.ReadBlock(now+500, block.ID(1+2*r.Uint64n(1000)))
		now = c.ContextSwitch(now)
	}
}
