// Package experiments regenerates every table and figure of the paper's
// evaluation (Section VI) plus the motivation studies (Section III). Every
// driver is a func(Options) (*stats.Table, error), a pure function of its
// options whose table rows/series mirror what the paper plots;
// cmd/experiments prints them and EXPERIMENTS.md records paper-vs-measured
// values.
//
// # Parallel execution
//
// Every driver decomposes into independent simulation cells. It lists its
// rows as variants — a resolved configuration (scheme, Z profile, ablation
// setting, or geometry and seed) plus the label its records carry — and one
// call, runBatch, runs every (variant × benchmark) cell as one batch across
// Options.Jobs workers via internal/runner and emits the records
// variant-major. Only the co-run probe, the Z-profile search and the
// stepped Fig 3/13 run simulate outside it. Each cell builds a private
// sim.System and trace.Generator from the cell's configuration and seed — a
// System is single-goroutine, so parallelism is always one System per
// worker. Every System is built by one constructor that also applies the
// options' epoch interval and flight recorder, so each figure's records and
// traces observe alike.
// Results are collected by cell index, never by completion order, and
// every cell's randomness is a pure function of (Options.Seed, cell
// identity), so the tables are bit-identical for every worker count:
// Jobs == 1 reproduces the historical sequential loops exactly.
//
// # Cross-figure memoization
//
// Because a cell's sim.Result is a pure function of its fully-resolved
// configuration, Options.Cache can memoize cells across drivers (the
// Baseline row alone is re-requested by Table 2, Fig 2, Fig 12 and the
// ablations): the first requester simulates, duplicates are served the
// stored result (see internal/cellcache for the single-flight and
// immutability contracts). Memoization changes only which requester pays
// the simulation cost — every emit/artifact/progress observation still
// fires per request, so tables and JSONL artifacts are byte-identical with
// the cache on or off, for every Jobs value. When drivers additionally run
// concurrently (the facade's overlapped -fig all sweep), Options.Limit
// bounds total in-flight cells across all of them.
package experiments

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"iroram/internal/cellcache"
	"iroram/internal/config"
	"iroram/internal/flight"
	"iroram/internal/runner"
	"iroram/internal/sim"
	"iroram/internal/trace"
)

// Options scales an experiment run.
type Options struct {
	// Base is the system geometry; scheme and Z profile are overridden per
	// run by the figure drivers.
	Base config.System
	// Requests is the number of trace records consumed per run.
	Requests int
	// Seed drives traces and ORAM randomness. Each simulation cell derives
	// its randomness purely from (Seed, cell identity), so results do not
	// depend on worker count or scheduling.
	Seed uint64
	// Benchmarks defaults to the 13 Table II programs.
	Benchmarks []string

	// Jobs bounds the number of concurrently simulated cells; zero or
	// negative means runtime.GOMAXPROCS(0), and 1 reproduces the historical
	// sequential behavior exactly.
	Jobs int
	// Context, when non-nil, cancels an in-flight sweep at the next cell
	// boundary (a started cell runs to completion; no new cell starts).
	Context context.Context
	// Progress, when non-nil, observes per-batch cell completion. Drivers
	// that fan several batches report each batch separately.
	Progress func(runner.Progress)

	// Artifacts, when non-nil, collects one JSONL Record per simulated
	// cell (see artifacts.go). Records are appended after each batch
	// completes, in cell-index order on the calling goroutine, so the
	// artifact bytes are identical for every Jobs value. The two drivers
	// that reduce a cell to one scalar — the co-run interference probe and
	// the Z-profile search — emit partial records (no metrics snapshot,
	// see NewProbeRecord) so every figure has a sidecar.
	Artifacts *ArtifactLog
	// Figure labels the records emitted into Artifacts; the facade's
	// Experiment dispatcher sets it to the experiment name.
	Figure string

	// Flight, when non-nil, collects one flight-recorder trace per
	// simulated cell (same post-batch, cell-index-order append contract
	// as Artifacts). FlightSample must also be non-zero for cells to be
	// traced: each cell's System gets a private recorder sampling 1 in
	// FlightSample path accesses into a ring of flight.DefaultCapacity
	// events. Tracing observes only — tables and artifact records are
	// byte-identical with it on or off.
	Flight       *FlightLog
	FlightSample uint64

	// EpochInterval, when non-zero, enables periodic epoch snapshots every
	// EpochInterval issued paths in each cell's System (time series in the
	// artifact records). Off by default — it costs amortized allocations
	// on the access path.
	EpochInterval uint64

	// Cache, when non-nil, memoizes cell results across drivers (see
	// internal/cellcache): identical cells simulate once and every later
	// requester gets the stored sim.Result. Tables, artifacts and progress
	// are computed per request regardless, so output bytes are identical
	// with the cache on or off. Nil disables memoization entirely.
	Cache *cellcache.Cache
	// Limit, when non-nil, bounds cell execution across every Options value
	// sharing it — the machine-wide budget when several figure drivers run
	// concurrently (see runner.Limit). Nil leaves Jobs as the only bound.
	Limit *runner.Limit
	// Counters, when non-nil, accumulates cache accounting across every
	// batch run under these options. Shared safely by concurrent drivers.
	Counters *CellCounters
}

// CellCounters tallies cell requests and cache hits across batches. One
// value may be shared by concurrently running drivers: the counters are
// atomic and the key log locks.
type CellCounters struct {
	// Cells counts every cell requested, cached or not.
	Cells atomic.Int64
	// Hits counts the cells served from the cross-figure cache. Which
	// requester of a duplicated cell records the hit depends on scheduling
	// (the loser of the single-flight race hits); totals across every
	// counter sharing a cache are scheduling-independent, but a per-figure
	// split wants Keys replayed instead — see Sweep.
	Hits atomic.Int64

	mu   sync.Mutex
	keys []string
}

// RecordKey logs the cache key of one requested cell. The multiset of keys
// is a pure function of the batch's option set; the order is whatever the
// worker schedule produced and carries no meaning.
func (c *CellCounters) RecordKey(key string) {
	c.mu.Lock()
	c.keys = append(c.keys, key)
	c.mu.Unlock()
}

// Keys returns the logged cell keys. The caller must not retain the slice
// past the counters' next RecordKey.
func (c *CellCounters) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.keys
}

// Default returns the scaled full-fidelity options used by cmd/experiments.
func Default() Options {
	return Options{Base: config.Scaled(), Requests: 30000, Seed: 1}
}

// Quick returns reduced options for tests and benchmarks: tiny geometry,
// short traces, three representative benchmarks (low-intensity gcc,
// read-chasing mcf, write-streaming lbm).
func Quick() Options {
	return Options{
		Base:       config.Tiny(),
		Requests:   2000,
		Seed:       1,
		Benchmarks: []string{"gcc", "mcf", "lbm"},
	}
}

func (o Options) benchmarks() []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	return trace.BenchmarkNames()
}

// pool assembles the runner configuration for one batch of cells.
func (o Options) pool() runner.Pool {
	return runner.Pool{Jobs: o.Jobs, Context: o.Context, OnProgress: o.Progress, Limit: o.Limit}
}

// mapCells fans fn over n independent cells on the options' worker pool;
// results come back ordered by cell index (see runner.Map). It is the one
// fan-out primitive every figure driver uses, through runBatch or directly.
// fn must be safe to call from multiple goroutines, which holds for anything
// built on runCell because each cell constructs a private System. fn must
// not fan out through mapCells again when Options.Limit is set — a nested
// sweep would acquire a second token while already holding one and can
// deadlock the shared budget. No current driver nests.
func mapCells[T any](o Options, n int, fn func(i int) (T, error)) ([]T, error) {
	return runner.Map(o.pool(), n, fn)
}

// variant is one row of a driver's sweep: a resolved configuration (the
// scheme, Z profile, ablation setting, geometry and seed all applied) and
// the label its records carry. A record's scheme name and seed come from
// cfg.
type variant struct {
	cfg   config.System
	label string
}

// variants returns one unlabelled variant per scheme, resolved by
// configFor.
func (o Options) variants(schemes ...config.Scheme) []variant {
	vs := make([]variant, len(schemes))
	for i, sch := range schemes {
		vs[i] = variant{cfg: o.configFor(sch)}
	}
	return vs
}

// sweep returns one variant of sch per label, the i-th with set(i, cfg)
// applied to its configuration.
func (o Options) sweep(sch config.Scheme, labels []string, set func(i int, cfg *config.System)) []variant {
	vs := make([]variant, len(labels))
	for i, label := range labels {
		vs[i] = variant{cfg: o.configFor(sch), label: label}
		set(i, &vs[i].cfg)
	}
	return vs
}

// runBatch runs every (variant × benchmark) cell as one parallel batch
// through runCell and returns the results indexed [variant][benchmark].
// Once the batch completes it emits one record per cell, variant-major.
func (o Options) runBatch(vs []variant, benches []string) ([][]sim.Result, error) {
	nb := len(benches)
	flat, err := mapCells(o, len(vs)*nb, func(i int) (sim.Result, error) {
		return o.runCell(cell{cfg: vs[i/nb].cfg, bench: benches[i%nb]})
	})
	if err != nil {
		return nil, err
	}
	out := make([][]sim.Result, len(vs))
	for vi, v := range vs {
		out[vi] = flat[vi*nb : (vi+1)*nb]
		for bi, b := range benches {
			o.emit(v, b, out[vi][bi])
		}
	}
	return out, nil
}

// cyclesOf projects a result row onto its cycle counts.
func cyclesOf(rs []sim.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = float64(r.Cycles)
	}
	return out
}

// cell is one fully-resolved simulation unit: a variant's configuration
// plus the benchmark driving it. Together with Requests and EpochInterval
// it determines a sim.Result bit-exactly, which is what makes cells
// cacheable across figure drivers.
type cell struct {
	cfg   config.System
	bench string
}

// configFor resolves sch against the options' base geometry and pins the
// seed — the one configuration every driver's cells start from.
func (o Options) configFor(sch config.Scheme) config.System {
	cfg := o.Base.WithScheme(sch)
	cfg.Seed = o.Seed
	return cfg
}

// newSystem builds a System for cfg armed with the options' observation
// settings: the epoch interval and, when tracing, a private flight
// recorder whose snapshot rides back on Result.Flight. Every System a
// driver simulates is built here, so every figure observes alike.
func (o Options) newSystem(cfg config.System) (*sim.System, error) {
	s, err := sim.New(cfg)
	if err != nil {
		return nil, err
	}
	s.SetEpochInterval(o.EpochInterval)
	if o.FlightSample > 0 {
		s.AttachFlight(flight.New(0, o.FlightSample))
	}
	return s, nil
}

// run simulates the cell directly: a fresh System and Generator per call,
// so concurrent calls never share state.
func (o Options) run(c cell) (sim.Result, error) {
	s, err := o.newSystem(c.cfg)
	if err != nil {
		return sim.Result{}, fmt.Errorf("experiments: %s/%s: %w", c.cfg.Scheme.Name, c.bench, err)
	}
	gen, err := trace.Named(c.bench, c.cfg.ORAM.DataBlocks(), c.cfg.Seed)
	if err != nil {
		return sim.Result{}, err
	}
	return s.Run(gen, o.Requests), nil
}

// runCell executes one cell, routing through the cross-figure cache when one
// is configured. Counters tally the request either way: cached cells still
// count toward the progress totals.
func (o Options) runCell(c cell) (sim.Result, error) {
	if o.Counters != nil {
		o.Counters.Cells.Add(1)
	}
	if o.Cache == nil {
		return o.run(c)
	}
	key := cellcache.Key(c.cfg, c.bench, o.Requests, o.EpochInterval)
	if o.Counters != nil {
		o.Counters.RecordKey(key)
	}
	res, hit, err := o.Cache.Do(key, func() (sim.Result, error) { return o.run(c) })
	if hit && o.Counters != nil {
		o.Counters.Hits.Add(1)
	}
	return res, err
}

// speedups converts per-row cycle counts into "vs baseline" speedups.
func speedups(base, scheme []float64) []float64 {
	out := make([]float64, len(base))
	for i := range base {
		if scheme[i] > 0 {
			out[i] = base[i] / scheme[i]
		}
	}
	return out
}

func levelRows(levels int) []string {
	rows := make([]string, levels)
	for l := range rows {
		rows[l] = fmt.Sprintf("L%02d", l)
	}
	return rows
}
