// Package iroram is a from-scratch reproduction of IR-ORAM ("IR-ORAM: Path
// Access Type Based Memory Intensity Reduction for Path-ORAM", HPCA 2022):
// a Path ORAM controller simulator implementing the paper's three
// path-type-specific optimizations plus the designs it compares against.
//
// # The simulator
//
// A System wires a trace-driven core, an LLC, the ORAM controller (with
// Freecursive recursion, a tree-top store, background eviction and
// timing-channel protection) and a DRAM timing model:
//
//	cfg := iroram.ScaledConfig().WithScheme(iroram.IROram())
//	sys, err := iroram.NewSystem(cfg)
//	res := sys.Run(iroram.BenchmarkTrace("mcf", cfg.ORAM.DataBlocks(), 1), 30000)
//	fmt.Println(res.Cycles, res.ORAM.Paths)
//
// Schemes: Baseline (Freecursive + 10-level dedicated tree-top cache +
// subtree layout + background eviction), Rho (ρ, Nagarajan et al.), LLCD
// (delayed block remapping), and the paper's IRAlloc, IRStash, IRDWB and
// the integrated IROram.
//
// # The experiments
//
// Every table and figure of the paper regenerates through the Experiment
// helpers (or the cmd/experiments binary); see EXPERIMENTS.md for the
// paper-vs-measured record. Sweeps decompose into independent
// (scheme, benchmark) cells that fan across ExperimentOptions.Jobs workers
// — one single-goroutine System per worker — with results collected by cell
// index and all randomness derived per cell, so a sweep's tables are
// byte-identical for every worker count (Jobs: 1 reproduces the sequential
// loops exactly):
//
//	opts := iroram.DefaultExperiments()
//	opts.Jobs = 8                       // or go run ./cmd/experiments -jobs 8
//	opts.Progress = func(p iroram.Progress) { fmt.Println(p.Done, p.Total) }
//	tab, err := iroram.Experiment("fig10", opts)
//
// # Observability
//
// Every run snapshots a registry of named instruments — per-path-type
// counters and latency histograms, phase cycle accounting, cache and DRAM
// counters — into Result.Metrics; MetricDescriptors lists the catalogue,
// and docs/METRICS.md is the schema reference (validated against the code
// by `make docscheck`). ArtifactLog and NewArtifactRecord turn results into
// schema-versioned JSONL artifacts, the same format cmd/experiments and
// cmd/irsim write with -emit jsonl; artifact bytes are deterministic and
// independent of the worker count, like the tables. Instrument updates are
// allocation-free on the simulator's access path, and epoch time series
// (ExperimentOptions.EpochInterval, System.SetEpochInterval) are opt-in
// because they allocate. See docs/OBSERVABILITY.md for a walkthrough.
package iroram
