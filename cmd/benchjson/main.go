// Command benchjson runs the repository's performance-trajectory
// benchmarks programmatically (testing.Benchmark, no `go test` plumbing)
// and writes one JSON snapshot per PR: benchmark name -> ns/op, B/op and
// allocs/op, plus the headline quick-scale figure metrics so a perf
// regression that shifts paper-facing numbers is visible in the same file.
//
// Usage:
//
//	benchjson -out BENCH_pr8.json          # write the snapshot (make benchjson);
//	                                       # -baseline pins the fig10 gmeans to the
//	                                       # previous PR's to machine precision;
//	                                       # -reps N (default 5) repeats each wall-
//	                                       # clock benchmark and keeps the minimum
//	benchjson -check                       # gate: fail if any zero-alloc hot-path
//	                                       # benchmark allocates (make alloccheck)
//	benchjson -diff NEW -against OLD       # gate: fail on >10% ns/op regression or
//	                                       # any metric drift (make benchcmp)
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"iroram"
	"iroram/internal/block"
	"iroram/internal/cache"
	"iroram/internal/config"
	"iroram/internal/core"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/metrics"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

type benchEntry struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// hostInfo records the machine a snapshot was taken on. Wall-clock numbers
// are only comparable within one host — the benchcmp gate already allows
// for scheduler noise, but cross-host diffs need this context to be read
// correctly.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
}

// hostSnapshot collects the host metadata. The CPU model is best-effort:
// /proc/cpuinfo exists only on Linux, and its absence just leaves the field
// empty.
func hostSnapshot() hostInfo {
	h := hostInfo{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, val, ok := strings.Cut(line, ":"); ok &&
				strings.TrimSpace(name) == "model name" {
				h.CPUModel = strings.TrimSpace(val)
				break
			}
		}
	}
	return h
}

type report struct {
	// Host describes the machine that produced the snapshot.
	Host hostInfo `json:"host"`
	// Reps is how many repetitions each wall-clock benchmark ran; the
	// recorded entry is the minimum ns/op over them (the run least
	// disturbed by the host), which keeps the 10% benchcmp gate from
	// tripping on scheduler noise.
	Reps int `json:"reps"`
	// Benchmarks are wall-clock microbenchmarks; they vary run to run with
	// the host, unlike Metrics, which are deterministic simulation outputs.
	Benchmarks map[string]benchEntry `json:"benchmarks"`
	// Metrics are the quick-scale fig10 geomean speedups over Baseline —
	// the repository's headline paper-facing numbers.
	Metrics map[string]float64 `json:"metrics"`
}

// zeroAllocBenchmarks are the steady-state hot paths gated at 0 allocs/op
// by `make alloccheck`: the end-to-end path access plus the PR 4
// data-structure microbenchmarks (eviction round-trip, LLC access with LRU
// tracking, DWB candidate scan), the PR 6 histogram observation (the one
// metrics operation on the access path), the PR 9 bitmap-engine
// microbenchmarks (the occupancy-word tree walk, the lazily-indexed
// tree-top lookup — whose alloc gate proves the index sweeps in place
// instead of growing), the PR 10 flight-recorder path (every access traced
// into the ring — recording must reuse ring slots, never allocate), the
// run-length DRAM service of a cached path schedule, and the IR-Stash
// fill/lookup mix (its memoized MD5 set index must never allocate).
var zeroAllocBenchmarks = []struct {
	name string
	fn   func(*testing.B)
}{
	{"PathAccess", benchPathAccess},
	{"Evict", core.EvictBenchmark},
	{"TreeWalk", tree.WalkBenchmark},
	{"TopCacheFind", stash.TopCacheFindBenchmark},
	{"LLCAccess", cache.AccessBenchmark},
	{"DWBScan", cache.ScanBenchmark},
	{"HistObserve", metrics.ObserveBenchmark},
	{"FlightAccess", benchFlightAccess},
	{"ServiceRuns", benchServiceRuns},
	{"IRStashFill", stash.IRStashFillBenchmark},
}

func main() {
	os.Exit(run(os.Args[1:]))
}

// run executes one invocation; 2 means a bad command line.
func run(args []string) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	var (
		out   = fs.String("out", "BENCH_pr10.json", "output file")
		check = fs.Bool("check", false,
			"only verify that the hot-path benchmarks perform 0 allocs/op; no file is written")
		reps = fs.Int("reps", 5,
			"repetitions per wall-clock benchmark (at least 1); the minimum ns/op is recorded")
		baseline = fs.String("baseline", "",
			"previous PR's snapshot; the deterministic metrics must match it exactly")
		diff = fs.String("diff", "",
			"snapshot to compare (with -against); fails on >10% ns/op regression or metric drift")
		against = fs.String("against", "",
			"baseline snapshot for -diff")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *reps < 1 {
		fmt.Fprintf(os.Stderr, "benchjson: -reps %d: need at least 1 repetition\n", *reps)
		return 2
	}

	if *diff != "" {
		return runDiff(*diff, *against)
	}

	if *check {
		ok := true
		for _, bm := range zeroAllocBenchmarks {
			res := testing.Benchmark(bm.fn)
			if allocs := res.AllocsPerOp(); allocs != 0 {
				fmt.Fprintf(os.Stderr,
					"benchjson: %s allocates (%d allocs/op, %d B/op); the hot path must stay allocation-free\n",
					bm.name, allocs, res.AllocedBytesPerOp())
				ok = false
			}
		}
		if !ok {
			return 1
		}
		names := make([]string, len(zeroAllocBenchmarks))
		for i, bm := range zeroAllocBenchmarks {
			names[i] = bm.name
		}
		fmt.Printf("benchjson: %s all 0 allocs/op ok\n", strings.Join(names, ", "))
		return 0
	}

	rep := report{
		Host: hostSnapshot(),
		Reps: *reps,
		Benchmarks: map[string]benchEntry{
			"ServicePath": benchMin(benchServicePath, *reps),
		},
		Metrics: map[string]float64{},
	}
	for _, bm := range zeroAllocBenchmarks {
		rep.Benchmarks[bm.name] = benchMin(bm.fn, *reps)
	}

	opts := iroram.QuickExperiments()
	tab, err := iroram.Experiment("fig10", opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: fig10: %v\n", err)
		return 1
	}
	for _, series := range []string{"Rho", "IR-Alloc", "IR-Stash", "IR-DWB", "IR-ORAM"} {
		if v, ok := tab.Get("gmean", series); ok {
			rep.Metrics["fig10_gmean_"+series] = v
		}
	}

	if *baseline != "" {
		base, err := loadReport(*baseline)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: baseline: %v\n", err)
			return 1
		}
		// The PR 4 contract: pure data-structure swaps, so every
		// deterministic metric must match the previous PR bit for bit.
		for name, want := range base.Metrics {
			if got, ok := rep.Metrics[name]; !ok || got != want {
				fmt.Fprintf(os.Stderr,
					"benchjson: metric %s = %v, baseline %s has %v — deterministic output drifted\n",
					name, rep.Metrics[name], *baseline, want)
				return 1
			}
		}
		fmt.Printf("benchjson: %d metrics match %s exactly\n", len(base.Metrics), *baseline)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	pa := rep.Benchmarks["PathAccess"]
	fmt.Printf("benchjson: wrote %s (PathAccess %.0f ns/op, %d allocs/op)\n",
		*out, pa.NsPerOp, pa.AllocsPerOp)
	return 0
}

// runDiff is the `make benchcmp` gate: metrics must match exactly
// (deterministic outputs), ns/op of shared benchmarks may not regress more
// than 10%. Benchmarks present on only one side are reported but not fatal
// (PRs add benchmarks). Sub-10% ratios aside, a regression must also clear
// an absolute floor of 5 ns/op: the smallest benchmarks (DWBScan at ~28
// ns/op, HistObserve at ~2) move several ns with the binary's code layout
// whenever any linked package is recompiled, and a gate that fails on
// layout noise of unchanged code trains people to ignore it.
func runDiff(newPath, oldPath string) int {
	if oldPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -diff requires -against")
		return 1
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	oldRep, err := loadReport(oldPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		return 1
	}
	ok := true
	for name, want := range oldRep.Metrics {
		got, present := newRep.Metrics[name]
		if !present || got != want {
			fmt.Fprintf(os.Stderr, "benchjson: metric drift: %s = %v, was %v\n",
				name, got, want)
			ok = false
		}
	}
	const (
		maxRegression = 1.10
		noiseFloorNs  = 5.0
	)
	for name, old := range oldRep.Benchmarks {
		cur, present := newRep.Benchmarks[name]
		if !present {
			fmt.Printf("benchjson: %s: only in %s (skipped)\n", name, oldPath)
			continue
		}
		ratio := cur.NsPerOp / old.NsPerOp
		fmt.Printf("benchjson: %-14s %9.1f -> %9.1f ns/op (%.2fx)\n",
			name, old.NsPerOp, cur.NsPerOp, ratio)
		if ratio > maxRegression && cur.NsPerOp-old.NsPerOp > noiseFloorNs {
			fmt.Fprintf(os.Stderr, "benchjson: %s regressed %.0f%% (limit 10%%, noise floor %.0f ns)\n",
				name, (ratio-1)*100, noiseFloorNs)
			ok = false
		}
	}
	if !ok {
		return 1
	}
	fmt.Printf("benchjson: %s vs %s ok\n", newPath, oldPath)
	return 0
}

// loadReport reads a snapshot and fails closed: unknown fields, data after
// the report and a report with no benchmarks are errors, so a gate never
// passes by comparing against something that is not a snapshot.
func loadReport(path string) (report, error) {
	var rep report
	data, err := os.ReadFile(path)
	if err != nil {
		return rep, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rep); err != nil {
		return rep, fmt.Errorf("%s: %w", path, err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return rep, fmt.Errorf("%s: trailing data after the report", path)
	}
	if len(rep.Benchmarks) == 0 {
		return rep, fmt.Errorf("%s: report has no benchmarks", path)
	}
	return rep, nil
}

func toEntry(r testing.BenchmarkResult) benchEntry {
	return benchEntry{
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// benchMin runs a benchmark reps times and keeps the repetition with the
// lowest ns/op — the one least disturbed by the host.
func benchMin(fn func(*testing.B), reps int) benchEntry {
	best := toEntry(testing.Benchmark(fn))
	for i := 1; i < reps; i++ {
		if e := toEntry(testing.Benchmark(fn)); e.NsPerOp < best.NsPerOp {
			best = e
		}
	}
	return best
}

// benchFlightAccess is benchPathAccess with a flight recorder attached and
// sampling every access — the fully traced path. Gating it at 0 allocs/op
// proves tracing itself stays allocation-free: events land in pre-allocated
// ring slots.
func benchFlightAccess(b *testing.B) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := core.NewController(cfg, mem, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	fl := flight.New(1<<14, 1)
	c.AttachFlight(fl)
	mem.AttachFlight(fl)
	is := core.NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
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

// benchPathAccess mirrors BenchmarkPathAccess in bench_test.go: end-to-end
// demand accesses (PLB misses and all) on the tiny geometry, warmed up so
// the steady state is measured.
func benchPathAccess(b *testing.B) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := core.NewController(cfg, mem, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	is := core.NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
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

func benchServicePath(b *testing.B) {
	m := dram.New(config.Scaled().DRAM)
	phys := make([]uint64, 44)
	for i := range phys {
		phys[i] = uint64(i * 37)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		now = m.ServicePath(now, phys, 0, false)
	}
}

// benchServiceRuns measures the schedule-cache hit path: the run list is
// built once (what PathSched memoizes per leaf) and only serviced per
// access, skipping address decomposition entirely.
func benchServiceRuns(b *testing.B) {
	m := dram.New(config.Scaled().DRAM)
	phys := make([]uint64, 44)
	for i := range phys {
		phys[i] = uint64(i * 37)
	}
	runs := m.AppendRuns(phys, 0, nil)
	b.ReportAllocs()
	b.ResetTimer()
	var now uint64
	for i := 0; i < b.N; i++ {
		now = m.ServiceRuns(now, runs, false)
	}
}
