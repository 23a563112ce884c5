// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -fig fig10                 # one figure at default scale
//	experiments -fig all -out results.txt  # everything, tables appended to a file
//	experiments -fig fig3 -requests 60000  # more trace records
//	experiments -fig all -jobs 8           # fan cells across 8 workers
//	experiments -fig fig10 -emit jsonl -out artifacts/   # JSONL sidecars
//
// Tables go to stdout (and -out); progress and per-figure timing go to
// stderr, so stdout is byte-identical for every -jobs value and safe to
// diff or commit. Ctrl-C cancels the sweep at the next cell boundary.
//
// By default the figures run as one deduplicated batch: -dedup shares a
// cell-result cache across drivers (a cell several figures re-request
// simulates once) and -overlap submits all drivers concurrently on one
// shared worker budget of -jobs cells, buffering tables and printing them
// in figure order. Both default on and change no output byte — disable
// with -dedup=false -overlap=false to reproduce the serial, cache-less
// runs. The per-figure stderr line reports cells=N hits=M cache accounting
// (cached cells still count in the -progress totals).
//
// With -emit jsonl, -out names a directory instead of an append file: one
// <figure>.jsonl sidecar per figure, one record per simulated cell with the
// full metric dump (schema in docs/METRICS.md). Artifact bytes, like
// stdout, are identical for every -jobs value.
//
// With -flight <dir>, every simulated cell carries a cycle-domain flight
// recorder sampling one in every -flight-sample path accesses, and the run
// writes one <figure>.trace.json Chrome trace-event file per figure under
// the directory — load it at https://ui.perfetto.dev or summarize it with
// cmd/flightstat (see docs/OBSERVABILITY.md). Trace bytes are identical
// for every -jobs value and for -dedup/-overlap on or off.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"time"

	"iroram"
	"iroram/internal/prof"
)

// main defers to run so profile flushing (and every other defer) survives
// the error exits; os.Exit directly in the work loop would truncate the
// pprof output.
func main() {
	os.Exit(run())
}

func run() (code int) {
	var (
		fig      = flag.String("fig", "all", figUsage())
		requests = flag.Int("requests", 30000, "trace records per run")
		seed     = flag.Uint64("seed", 1, "simulation seed")
		benches  = flag.String("benchmarks", "", "comma-separated benchmark subset (default: all 13)")
		out      = flag.String("out", "", "append results to this file; with -emit jsonl, the artifact directory")
		quick    = flag.Bool("quick", false, "tiny geometry smoke run")
		jobs     = flag.Int("jobs", runtime.GOMAXPROCS(0),
			"parallel simulation cells (1 = sequential; results are identical for every value)")
		progress = flag.Bool("progress", true, "report cell progress and ETA on stderr")
		emitMode = flag.String("emit", "", `artifact emission: "jsonl" writes per-figure sidecars under -out`)
		epochs   = flag.Uint64("epochs", 0, "with -emit jsonl: record an epoch snapshot every N issued paths (0 = off)")
		dedup    = flag.Bool("dedup", true,
			"share one cell-result cache across figures (identical cells simulate once; output bytes are unchanged)")
		overlap = flag.Bool("overlap", true,
			"run figure drivers concurrently on one shared worker budget (tables still print in figure order)")
		flightDir = flag.String("flight", "",
			"write per-figure Chrome trace-event files (<figure>.trace.json) under this directory")
		flightSample = flag.Uint64("flight-sample", 1,
			"with -flight: trace one in every N path accesses (1 = every access)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *emitMode != "" && *emitMode != "jsonl" {
		fmt.Fprintf(os.Stderr, "experiments: unknown -emit mode %q (only \"jsonl\")\n", *emitMode)
		return 2
	}
	if *emitMode == "jsonl" && *out == "" {
		fmt.Fprintln(os.Stderr, "experiments: -emit jsonl requires -out <dir>")
		return 2
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		return 2
	}
	// A profile that failed to flush is worse than none: it looks like a
	// successful run but lies to pprof. Surface it and fail the command.
	defer func() {
		if err := stopProf(); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			if code == 0 {
				code = 1
			}
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	opts := iroram.DefaultExperiments()
	if *quick {
		opts = iroram.QuickExperiments()
	}
	opts.Requests = *requests
	opts.Seed = *seed
	opts.Jobs = *jobs
	opts.Context = ctx
	if *benches != "" {
		list, err := parseBenchmarks(*benches)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 2
		}
		opts.Benchmarks = list
	}

	var artifacts *iroram.ArtifactLog
	if *emitMode == "jsonl" {
		artifacts = &iroram.ArtifactLog{}
		opts.Artifacts = artifacts
		opts.EpochInterval = *epochs
	}

	var flightLog *iroram.FlightLog
	if *flightDir != "" {
		if *flightSample == 0 {
			fmt.Fprintln(os.Stderr, "experiments: -flight-sample must be >= 1")
			return 2
		}
		flightLog = &iroram.FlightLog{}
		opts.Flight = flightLog
		opts.FlightSample = *flightSample
	}

	// Sidecar files (JSONL artifacts, flight traces) are written after the
	// run from both the sweep path and the zsearch branch.
	writeSidecars := func() int {
		if artifacts != nil {
			if err := artifacts.WriteDir(*out); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "[wrote %d artifact records under %s]\n",
				artifacts.Len(), *out)
		}
		if flightLog != nil {
			if err := flightLog.WriteDir(*flightDir); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
				return 1
			}
			fmt.Fprintf(os.Stderr, "[wrote %d flight traces under %s]\n",
				flightLog.Len(), *flightDir)
		}
		return 0
	}

	var sink *os.File
	if *out != "" && *emitMode == "" {
		f, err := os.OpenFile(*out, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			return 1
		}
		// A sink that failed to close may have lost buffered results; like
		// the profile flush above, surface it and fail the command.
		defer func() {
			if err := f.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "experiments: closing %s: %v\n", *out, err)
				if code == 0 {
					code = 1
				}
			}
		}()
		sink = f
	}
	emit := func(s string) {
		fmt.Print(s)
		if sink != nil {
			fmt.Fprint(sink, s)
		}
	}

	if *fig == "zsearch" {
		opts.Progress = progressObserver("zsearch", *progress)
		zprof, desc, err := iroram.SearchZProfile(opts)
		clearProgress(*progress)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: zsearch: %v\n", err)
			return 1
		}
		emit(fmt.Sprintf("Z-search result: %s\n(per-path blocks: %d)\n\n",
			desc, zprof.BlocksPerPath(opts.Base.ORAM.TopLevels)))
		return writeSidecars()
	}

	names := []string{*fig}
	if *fig == "all" {
		names = append([]string{}, iroram.FigureNames...)
	}
	sweep := iroram.Sweep{
		Options: opts,
		Names:   names,
		Dedup:   *dedup,
		Overlap: *overlap,
		ProgressFor: func(name string) func(iroram.Progress) {
			return progressObserver(name, *progress)
		},
	}
	if err := sweep.Run(func(fr iroram.FigureRun) {
		clearProgress(*progress)
		if fr.Err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", fr.Name, fr.Err)
			return
		}
		emit(fr.Table.String())
		emit("\n")
		fmt.Fprintf(os.Stderr, "[%s took %v, jobs=%d, cells=%d hits=%d]\n",
			fr.Name, fr.Elapsed.Round(time.Millisecond), *jobs, fr.Cells, fr.Hits)
	}); err != nil {
		return 1
	}
	return writeSidecars()
}

// figUsage is the -fig help: every name the command accepts.
func figUsage() string {
	return "experiment: " + strings.Join(iroram.FigureNames, ", ") + ", zsearch, or all"
}

// parseBenchmarks splits a comma-separated benchmark list, trimming
// whitespace around each name (so "-benchmarks 'gcc, mcf'" works) and
// rejecting empty or unknown entries with the valid names spelled out.
func parseBenchmarks(s string) ([]string, error) {
	valid := map[string]bool{"mix": true, "random": true}
	names := append([]string{}, iroram.Benchmarks()...)
	for _, b := range names {
		valid[b] = true
	}
	sort.Strings(names)
	usage := fmt.Sprintf("valid names: %s, mix, random", strings.Join(names, ", "))

	var list []string
	for _, raw := range strings.Split(s, ",") {
		b := strings.TrimSpace(raw)
		if b == "" {
			return nil, fmt.Errorf("empty benchmark name in %q (%s)", s, usage)
		}
		if !valid[b] {
			return nil, fmt.Errorf("unknown benchmark %q (%s)", b, usage)
		}
		list = append(list, b)
	}
	return list, nil
}

// progressObserver prints the stderr progress line on the runner's
// serialized progress-callback path, so it touches no simulation state and
// needs no extra synchronization. It returns nil when the line is off.
func progressObserver(name string, enabled bool) func(iroram.Progress) {
	if !enabled {
		return nil
	}
	return func(p iroram.Progress) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d cells (elapsed %v, eta %v)   ",
			name, p.Done, p.Total,
			p.Elapsed.Round(time.Second), p.ETA().Round(time.Second))
	}
}

func clearProgress(enabled bool) {
	if enabled {
		fmt.Fprint(os.Stderr, "\r\033[K")
	}
}
