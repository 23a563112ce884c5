// Command irsim runs one (scheme, workload) simulation and prints a result
// summary: cycles, path-access breakdown, PLB and DRAM behaviour.
//
// Usage:
//
//	irsim -scheme IR-ORAM -bench mcf -requests 30000
//	irsim -scheme Baseline -bench mix -levels 25   # Table I geometry
//	irsim -scheme IR-ORAM -bench mcf -emit jsonl -out artifacts/ -epochs 1000
//
// With -emit jsonl, the run additionally writes artifacts/irsim.jsonl: one
// record carrying the full metric dump (docs/METRICS.md schema), plus the
// epoch time series when -epochs is set.
//
// With -flight <file>, the run records cycle-domain spans (one in every
// -flight-sample path accesses) and writes them as a Chrome trace-event
// file — load it at https://ui.perfetto.dev or summarize it with
// cmd/flightstat. Under -compare each scheme becomes one trace process in
// the same file.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"iroram"
	"iroram/internal/block"
	"iroram/internal/prof"
)

// main defers to run so the pprof outputs flush on every exit path.
func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		scheme       = flag.String("scheme", "Baseline", "scheme: Baseline, Rho, IR-Alloc, IR-Stash, IR-DWB, IR-ORAM, LLC-D")
		bench        = flag.String("bench", "mix", `workload: a Table II benchmark, "mix", or "random"`)
		requests     = flag.Int("requests", 30000, "trace records to simulate")
		levels       = flag.Int("levels", 0, "override ORAM tree levels (0 = scaled default, 25 = Table I)")
		seed         = flag.Uint64("seed", 1, "simulation seed")
		compare      = flag.Bool("compare", false, "run every scheme on the workload and print a comparison")
		emitMode     = flag.String("emit", "", `artifact emission: "jsonl" writes irsim.jsonl under -out`)
		out          = flag.String("out", "", "artifact directory for -emit jsonl")
		epochs       = flag.Uint64("epochs", 0, "with -emit jsonl: record an epoch snapshot every N issued paths (0 = off)")
		flightOut    = flag.String("flight", "", "write a Chrome trace-event file of the run to this path")
		flightSample = flag.Uint64("flight-sample", 1,
			"with -flight: trace one in every N path accesses (1 = every access)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *flightOut != "" && *flightSample == 0 {
		fmt.Fprintln(os.Stderr, "irsim: -flight-sample must be >= 1")
		return 2
	}

	if *emitMode != "" && *emitMode != "jsonl" {
		fmt.Fprintf(os.Stderr, "irsim: unknown -emit mode %q (only \"jsonl\")\n", *emitMode)
		return 2
	}
	if *emitMode == "jsonl" && *out == "" {
		fmt.Fprintln(os.Stderr, "irsim: -emit jsonl requires -out <dir>")
		return 2
	}
	// Epoch snapshots appear only in the JSONL record, so without it they
	// would be collected and never shown.
	if *epochs > 0 && *emitMode != "jsonl" {
		fmt.Fprintln(os.Stderr, "irsim: -epochs requires -emit jsonl (epochs are written only to the JSONL record)")
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
		return 2
	}
	// A profile that failed to flush is worse than none: it looks like a
	// successful run but lies to pprof. Surface it and fail the command.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	if *compare {
		return runComparison(*bench, *requests, *levels, *seed, *emitMode, *out, *epochs,
			*flightSample, *flightOut)
	}

	cfg := geometry(*levels, *seed)
	var found bool
	for _, sch := range iroram.AllSchemes() {
		if strings.EqualFold(sch.Name, *scheme) {
			cfg = cfg.WithScheme(sch)
			found = true
			break
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "irsim: unknown scheme %q\n", *scheme)
		return 2
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
		return 2
	}

	sys, err := iroram.NewSystem(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
		return 1
	}
	gen, err := iroram.NewTrace(*bench, cfg.ORAM.DataBlocks(), cfg.Seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
		return 1
	}
	sys.SetEpochInterval(*epochs)
	if *flightOut != "" {
		sys.AttachFlight(iroram.NewFlightRecorder(0, *flightSample))
	}

	res := sys.Run(gen, *requests)
	if code := writeFlight(*flightOut, cfg.Scheme.Name+"/"+res.Name, res.Flight); code != 0 {
		return code
	}
	return report(cfg, res, *emitMode, *out, *seed)
}

// geometry returns the system -levels selects: the scaled default (0),
// Table I (25), or the scaled system at that tree height.
func geometry(levels int, seed uint64) iroram.Config {
	cfg := iroram.ScaledConfig()
	if levels == 25 {
		cfg = iroram.PaperConfig()
	} else if levels != 0 {
		cfg.ORAM.Levels = levels
		cfg.ORAM.Z = nil // rebuilt by WithScheme
	}
	cfg.Seed = seed
	return cfg
}

// writeFlight exports one run's flight trace as a Chrome trace-event file.
// A no-op when tracing was off (empty path or nil trace).
func writeFlight(path, name string, tr *iroram.FlightTrace) int {
	if path == "" || tr == nil {
		return 0
	}
	return writeFlightProcs(path, []iroram.FlightProcess{{Name: name, Trace: tr}})
}

func writeFlightProcs(path string, procs []iroram.FlightProcess) int {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "irsim: flight: %v\n", err)
		return 1
	}
	err = iroram.WriteFlightTrace(f, procs)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "irsim: flight %s: %v\n", path, err)
		return 1
	}
	var events, dropped uint64
	for _, p := range procs {
		events += uint64(len(p.Trace.Events))
		dropped += p.Trace.Dropped
	}
	fmt.Fprintf(os.Stderr, "[wrote flight trace %s: %d events, %d dropped]\n",
		path, events, dropped)
	return 0
}

// report prints the run summary and writes the JSONL artifact when asked.
func report(cfg iroram.Config, res iroram.Result, emitMode, out string, seed uint64) int {
	fmt.Printf("scheme        %s\n", cfg.Scheme.Name)
	fmt.Printf("workload      %s (%d requests, %d instructions)\n",
		res.Name, res.Requests, res.Instructions)
	fmt.Printf("geometry      L=%d, top %d levels on-chip, %d blocks/path\n",
		cfg.ORAM.Levels, cfg.ORAM.TopLevels, cfg.ORAM.Z.BlocksPerPath(cfg.ORAM.TopLevels))
	fmt.Printf("cycles        %d (IPC %.3f)\n", res.Cycles, res.IPC())
	fmt.Printf("LLC           %.1f%% miss, %d read misses, %d write-backs (r/w MPKI %.2f/%.2f)\n",
		100*res.LLC.MissRate(), res.ReadMisses, res.DirtyWBs, res.ReadMPKI(), res.WriteMPKI())
	total := res.ORAM.Paths.Total()
	fmt.Printf("paths         %d total\n", total)
	for _, pt := range []block.PathType{block.PathData, block.PathPos1,
		block.PathPos2, block.PathDummy, block.PathEvict, block.PathDWB} {
		if n := res.ORAM.Paths.Paths[pt]; n > 0 {
			fmt.Printf("  %-11s %8d (%.1f%%)\n", pt, n, 100*res.ORAM.Paths.Fraction(pt))
		}
	}
	fmt.Printf("on-chip hits  stash %d, S-Stash %d, tree-top %d\n",
		res.ORAM.StashHits, res.ORAM.SStashHits, res.ORAM.TopHits)
	fmt.Printf("PLB           %d hits / %d misses\n", res.ORAM.PLBHits, res.ORAM.PLBMisses)
	fmt.Printf("DRAM          %d reads, %d writes, %.1f%% row hits\n",
		res.DRAM.Reads, res.DRAM.Writes, 100*res.DRAM.RowHitRate())
	if res.ORAM.DWBCompleted > 0 {
		fmt.Printf("IR-DWB        %d converted, %d completed, %d aborted\n",
			res.ORAM.DWBConverted, res.ORAM.DWBCompleted, res.ORAM.DWBAborted)
	}
	if res.ORAM.NonUniformIssues > 0 {
		fmt.Printf("WARNING       %d issue-gap violations (obliviousness audit)\n",
			res.ORAM.NonUniformIssues)
	}
	if emitMode == "jsonl" {
		log := &iroram.ArtifactLog{}
		log.Add(iroram.NewArtifactRecord("irsim", cfg.Scheme.Name, res.Name, "", seed, res))
		if err := log.WriteDir(out); err != nil {
			fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "[wrote artifact record under %s]\n", out)
	}
	return 0
}

// runComparison is -compare: every scheme on one workload, one line each.
// With -emit jsonl it also writes one artifact record per scheme; with
// -flight, one trace file where each scheme is a process.
func runComparison(bench string, requests, levels int, seed uint64, emitMode, out string,
	epochs, flightSample uint64, flightOut string) int {
	fmt.Printf("%-10s %14s %9s %8s %8s %8s %8s\n",
		"scheme", "cycles", "speedup", "paths", "PTp", "dummies", "blk/acc")
	var baseCycles float64
	artifacts := &iroram.ArtifactLog{}
	var procs []iroram.FlightProcess
	for _, sch := range iroram.AllSchemes() {
		cfg := geometry(levels, seed).WithScheme(sch)
		sys, err := iroram.NewSystem(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irsim: %s: %v\n", sch.Name, err)
			return 1
		}
		gen, err := iroram.NewTrace(bench, cfg.ORAM.DataBlocks(), cfg.Seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "irsim: %s: %v\n", sch.Name, err)
			return 1
		}
		sys.SetEpochInterval(epochs)
		if flightOut != "" {
			sys.AttachFlight(iroram.NewFlightRecorder(0, flightSample))
		}
		res := sys.Run(gen, requests)
		if emitMode == "jsonl" {
			artifacts.Add(iroram.NewArtifactRecord("irsim", sch.Name, res.Name, "", seed, res))
		}
		if flightOut != "" && res.Flight != nil {
			procs = append(procs, iroram.FlightProcess{
				Name: sch.Name + "/" + res.Name, Trace: res.Flight})
		}
		if baseCycles == 0 {
			baseCycles = float64(res.Cycles)
		}
		total := res.ORAM.Paths.Total()
		blkPerAcc := 0.0
		if total > 0 {
			blkPerAcc = float64(res.ORAM.Paths.BlocksRead+res.ORAM.Paths.BlocksWrit) / float64(total)
		}
		fmt.Printf("%-10s %14d %9.3f %8d %8d %8d %8.1f\n",
			sch.Name, res.Cycles, baseCycles/float64(res.Cycles), total,
			res.ORAM.PosMapPaths, res.ORAM.DummyPaths, blkPerAcc)
	}
	if emitMode == "jsonl" {
		if err := artifacts.WriteDir(out); err != nil {
			fmt.Fprintf(os.Stderr, "irsim: %v\n", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "[wrote %d artifact records under %s]\n", artifacts.Len(), out)
	}
	if flightOut != "" && len(procs) > 0 {
		if code := writeFlightProcs(flightOut, procs); code != 0 {
			return code
		}
	}
	return 0
}
