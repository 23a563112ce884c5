package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"syscall"
	"time"

	"iroram"
)

// workload is one input the benchmark runs. A single-System workload
// replays requests records of one synthetic trace through one System; the
// sweep workload (scheme nil) regenerates every paper figure at quick
// scale. Both are batch replays with no arrival process: the next request
// is issued as soon as the previous one returns. Every repetition builds
// its Systems from scratch, so modeled caches and trees start empty and
// the statistics cover the whole run.
type workload struct {
	name string
	why  string
	// base is the geometry; for the sweep, the quick experiments' base.
	base     func() iroram.Config
	scheme   func() iroram.Scheme
	bench    string
	requests int
}

// sweepJobs is the sweep's worker count: the two CPUs of the host the
// bounds were set on. Single-System workloads are one goroutine, so no
// workload loads more than two threads.
const sweepJobs = 2

// workloads are sized so one repetition takes about 7-12 s on the 2-vCPU
// Xeon of README.md's reference measurements. lbm-iroram must not be
// shortened: its host time per path roughly doubles between 20k and 200k
// requests as the S-Stash fills.
var workloads = []workload{
	{
		name: "mcf-baseline",
		why: "Read-chasing mcf on Baseline Path ORAM: about 65% PT_p paths; host time in posmap/PLB, " +
			"the tree occupancy walk and run-length DRAM service; no IR-Stash and no DWB",
		base: iroram.ScaledConfig, scheme: iroram.Baseline, bench: "mcf", requests: 1_200_000,
	},
	{
		name: "lbm-iroram",
		why: "Write-streaming lbm on IR-ORAM: all three levers (S-Stash, shrunken Z, DWB); " +
			"most host time is md5 under the IR-Stash set index",
		base: iroram.ScaledConfig, scheme: iroram.IROram, bench: "lbm", requests: 200_000,
	},
	{
		name: "xz-ring",
		why: "Mixed reads and writes of xz on Ring ORAM: Ring's own access path and the per-address " +
			"DRAM service; no S-Stash work",
		base: iroram.ScaledConfig, scheme: iroram.Ring, bench: "xz", requests: 800_000,
	},
	{
		name: "fig-all-quick",
		why: "Every paper figure at quick scale with 2 jobs, dedup and overlap: the only workload that " +
			"drives experiments/runner/cellcache, building hundreds of tiny Systems",
		base: func() iroram.Config { return iroram.QuickExperiments().Base }, requests: 30_000,
	},
}

func (w workload) sweep() bool { return w.scheme == nil }

// jobs is the number of threads the workload's simulation runs on.
func (w workload) jobs() int {
	if w.sweep() {
		return sweepJobs
	}
	return 1
}

func (w workload) config(seed uint64) iroram.Config {
	cfg := w.base().WithScheme(w.scheme())
	cfg.Seed = seed
	return cfg
}

// build constructs one System and the trace that drives it.
func build(cfg iroram.Config, bench string, seed uint64) (*iroram.System, iroram.TraceGenerator, error) {
	sys, err := iroram.NewSystem(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("new system: %w", err)
	}
	gen, err := iroram.NewTrace(bench, cfg.ORAM.DataBlocks(), seed)
	if err != nil {
		return nil, nil, fmt.Errorf("new trace: %w", err)
	}
	return sys, gen, nil
}

// setup does the construction work of one repetition and discards it: the
// System and trace of a single-System workload, or, for the sweep, one
// System and trace per cell of the quick fig10 grid — the kind of tiny
// System its figures build hundreds of.
func (w workload) setup(seed uint64) error {
	if !w.sweep() {
		_, _, err := build(w.config(seed), w.bench, seed)
		return err
	}
	for _, sch := range iroram.AllSchemes() {
		for _, bench := range iroram.QuickExperiments().Benchmarks {
			cfg := w.base().WithScheme(sch)
			cfg.Seed = seed
			if _, _, err := build(cfg, bench, seed); err != nil {
				return err
			}
		}
	}
	return nil
}

// counters are simulated counters by registry name (docs/METRICS.md),
// summed over every cell for the sweep.
type counters map[string]uint64

// bucket is one non-empty bucket of a log2 histogram: n samples at most hi.
type bucket struct{ hi, n uint64 }

// windows is how many timed windows a repetition's Step loop is cut into.
// Host-speed metrics are medians over windows, so a burst of interference
// from other tenants of the machine moves a few windows, not the result.
const windows = 20

// window is one timed stretch of simulation: the sweep's whole run, or one
// twentieth of a single-System repetition's requests.
type window struct {
	d        time.Duration
	requests uint64
	paths    uint64
}

// rep is the outcome of one repetition of a workload.
type rep struct {
	// wall is the whole repetition: construction, replay and Result for a
	// single System, Sweep.Run for the sweep.
	wall    time.Duration
	windows []window
	// cpu is the process CPU time over the repetition.
	cpu time.Duration
	// heapMB is the live heap after the run, after GC, minus the live heap
	// before construction.
	heapMB float64

	sim         counters
	missLatency []bucket
	// digest fingerprints every simulated output of the repetition: the
	// metrics snapshot, or the sweep's tables and artifact records. Reps of
	// one seed must agree on it.
	digest string
	// cells and hits are the sweep's requested cells and cell-cache hits.
	cells, hits int64

	problems []string
}

func (w workload) rep(seed uint64, sp *spans) (rep, error) {
	if w.sweep() {
		return w.runSweep(seed, sp != nil)
	}
	return w.runSystem(seed, sp)
}

// runSystem replays the workload's trace through one System. With sp
// non-nil the harness times every call into the trace and sim layers, and
// skips the heap measurement so its collections stay out of the profile.
func (w workload) runSystem(seed uint64, sp *spans) (rep, error) {
	var r rep
	cfg := w.config(seed)
	var heap0 float64
	if sp == nil {
		heap0 = liveHeap()
	}
	cpu0 := cpuTime()
	start := time.Now()
	sys, gen, err := build(cfg, w.bench, seed)
	if err != nil {
		return r, err
	}
	if sp == nil {
		r.windows = replay(sys, gen, w.requests)
	} else {
		sp.replay(sys, gen, w.requests)
	}
	resultStart := time.Now()
	res := sys.Result(gen.Name())
	if sp != nil {
		sp.result += time.Since(resultStart)
		sp.results++
	}
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0

	r.problems = checkResult(res, w.requests)
	ctrl := sys.Controller()
	if err := ctrl.CheckInvariants(); err != nil {
		r.problems = append(r.problems, "invariants: "+err.Error())
	}
	// Occupancy above the eviction threshold (StashOverfull) is a normal
	// transient; above the provisioned capacity it is not.
	if n, capacity := ctrl.StashLen(), cfg.ORAM.StashCapacity; n > capacity {
		r.problems = append(r.problems, fmt.Sprintf("stash holds %d blocks, over its capacity %d", n, capacity))
	}
	if sp == nil {
		r.heapMB = (liveHeap() - heap0) / 1e6
	}
	runtime.KeepAlive(sys)

	r.sim, r.missLatency = fromSnapshot(res.Metrics)
	h := sha256.New()
	if err := json.NewEncoder(h).Encode(res.Metrics); err != nil {
		return r, fmt.Errorf("encode metrics: %w", err)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// replay steps sys through n requests of gen in timed windows.
func replay(sys *iroram.System, gen iroram.TraceGenerator, n int) []window {
	st := sys.Controller().Stats()
	size := (n + windows - 1) / windows
	var out []window
	for done := 0; done < n; done += size {
		k := min(size, n-done)
		paths := st.PathsIssued
		start := time.Now()
		i := 0
		for ; i < k; i++ {
			req, ok := gen.Next()
			if !ok {
				break
			}
			sys.Step(req)
		}
		out = append(out, window{d: time.Since(start), requests: uint64(i), paths: st.PathsIssued - paths})
		if i < k {
			break // trace exhausted; checkResult reports the shortfall
		}
	}
	return out
}

// checkResult checks one single-System Result: every asked request was
// consumed and timing protection never let the controller sit idle.
func checkResult(res iroram.Result, asked int) []string {
	var problems []string
	if res.Requests != uint64(asked) {
		problems = append(problems, fmt.Sprintf("consumed %d requests, asked %d", res.Requests, asked))
	}
	if n := res.ORAM.NonUniformIssues; n != 0 {
		problems = append(problems, fmt.Sprintf("%d non-uniform path issues", n))
	}
	if res.Metrics == nil || res.Metrics.Counters["sim_requests"] != res.Requests {
		problems = append(problems, "metrics snapshot disagrees with the Result's request count")
	}
	return problems
}

// runSweep regenerates every figure once. Artifact records are collected
// so the simulated totals can be summed over cells; they do not change the
// tables. A traced sweep skips the heap measurement, as runSystem does.
func (w workload) runSweep(seed uint64, traced bool) (rep, error) {
	var r rep
	opts := iroram.QuickExperiments()
	opts.Base = w.base()
	opts.Requests = w.requests
	opts.Seed = seed
	opts.Jobs = sweepJobs
	opts.Artifacts = &iroram.ArtifactLog{}
	h := sha256.New()

	var heap0 float64
	if !traced {
		heap0 = liveHeap()
	}
	cpu0 := cpuTime()
	start := time.Now()
	err := iroram.Sweep{Options: opts, Dedup: true, Overlap: true}.Run(func(fr iroram.FigureRun) {
		r.cells += fr.Cells
		r.hits += fr.Hits
		if fr.Table != nil {
			_, _ = io.WriteString(h, fr.Table.String()) // hash writes never fail
		}
	})
	r.wall = time.Since(start)
	r.cpu = cpuTime() - cpu0
	if !traced {
		r.heapMB = (liveHeap() - heap0) / 1e6
	}
	if err != nil {
		r.problems = append(r.problems, "sweep: "+err.Error())
	}

	r.sim = counters{}
	var hist []bucket
	for _, rec := range opts.Artifacts.Records() {
		if rec.Metrics == nil {
			continue // probe cells carry no metrics snapshot
		}
		c, lat := fromSnapshot(rec.Metrics)
		for name, v := range c {
			r.sim[name] += v
		}
		hist = append(hist, lat...)
	}
	r.missLatency = mergeBuckets(hist)
	r.windows = []window{{d: r.wall, requests: r.sim["sim_requests"], paths: r.sim["oram_paths_issued"]}}
	if n := r.sim["oram_nonuniform_issues"]; n != 0 {
		r.problems = append(r.problems, fmt.Sprintf("%d non-uniform path issues", n))
	}

	if err := opts.Artifacts.Encode(h); err != nil {
		return r, err
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// compareReps marks every repetition whose simulated output differs from
// the first one's: reps of one seed must simulate identically.
func compareReps(reps []rep) {
	for i := 1; i < len(reps); i++ {
		if reps[i].digest != reps[0].digest {
			reps[i].problems = append(reps[i].problems,
				fmt.Sprintf("simulated output of rep %d differs from rep 0", i))
		}
	}
}

func fromSnapshot(s *iroram.MetricsSnapshot) (counters, []bucket) {
	c := counters{}
	if s == nil {
		return c, nil
	}
	for name, v := range s.Counters {
		c[name] = v
	}
	var h []bucket
	for _, b := range s.Histograms["sim_miss_latency"].Buckets {
		h = append(h, bucket{hi: b.Hi, n: b.N})
	}
	return c, h
}

// mergeBuckets sums buckets with the same upper bound, in ascending order.
func mergeBuckets(bs []bucket) []bucket {
	byHi := map[uint64]uint64{}
	for _, b := range bs {
		byHi[b.hi] += b.n
	}
	out := make([]bucket, 0, len(byHi))
	for hi, n := range byHi {
		out = append(out, bucket{hi: hi, n: n})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].hi < out[j].hi })
	return out
}

// liveHeap collects garbage and returns the live heap in bytes.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
