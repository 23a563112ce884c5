package iroram

import (
	"io"

	"iroram/internal/config"
	"iroram/internal/experiments"
	"iroram/internal/flight"
	"iroram/internal/metrics"
	"iroram/internal/obliv"
	"iroram/internal/runner"
	"iroram/internal/sim"
	"iroram/internal/stats"
	"iroram/internal/trace"
)

// Config is the full simulator configuration (ORAM geometry, DRAM timing,
// caches, CPU model, scheme). Validate before use; the preset constructors
// return valid configurations.
type Config = config.System

// Scheme selects one of the compared designs.
type Scheme = config.Scheme

// ZProfile is the per-level bucket-size profile that IR-Alloc tunes.
type ZProfile = config.ZProfile

// System is one wired simulation instance.
type System = sim.System

// Result summarizes one run.
type Result = sim.Result

// Table is the row/series result container every experiment returns.
type Table = stats.Table

// TraceRequest is one record of a workload trace.
type TraceRequest = trace.Request

// TraceGenerator produces workload request streams.
type TraceGenerator = trace.Generator

// PaperConfig returns the Table I system: L=25, 8 GB protected space with
// 4 GB user data, 10 tree-top levels on-chip, T=1000, 2 MB LLC. Full scale:
// budget ~1.5 GB of memory per System.
func PaperConfig() Config { return config.Paper() }

// ScaledConfig returns the default experiment geometry (L=21): the same
// level structure relative to the tree-top cache at 1/16 the capacity.
func ScaledConfig() Config { return config.Scaled() }

// TinyConfig returns a small geometry (L=14) for tests and quick smoke
// runs.
func TinyConfig() Config { return config.Tiny() }

// Baseline is Freecursive Path ORAM with the dedicated 10-level tree-top
// cache, subtree layout and background eviction.
func Baseline() Scheme { return config.Baseline() }

// Rho is the ρ design (smaller hot tree, fixed 1:2 issue pattern).
func Rho() Scheme { return config.RhoScheme() }

// IRAlloc is the utilization-aware node-size allocator alone.
func IRAlloc() Scheme { return config.IRAllocScheme() }

// IRStash is the double-indexed tree-top sub-stash alone.
func IRStash() Scheme { return config.IRStashScheme() }

// IRDWB is the dummy-to-early-write-back conversion alone.
func IRDWB() Scheme { return config.IRDWBScheme() }

// IROram integrates IR-Alloc, IR-Stash and IR-DWB.
func IROram() Scheme { return config.IROramScheme() }

// LLCD is Baseline plus the delayed block remapping policy.
func LLCD() Scheme { return config.LLCDScheme() }

// IROramLLCD is the paper's Section IV-D future-work extension: the full
// IR-ORAM stack over an LLC-D baseline with proactive PosMap prefetching.
func IROramLLCD() Scheme { return config.IROramOnLLCD() }

// Ring is Ring ORAM (Ren et al.), the alternative read protocol Section
// VII cites as orthogonal to IR-ORAM.
func Ring() Scheme { return config.RingScheme() }

// RingWithIRAlloc composes Ring ORAM with the IR-Alloc profile.
func RingWithIRAlloc() Scheme { return config.RingIRAlloc() }

// AllSchemes returns the Fig 10 scheme list in plot order.
func AllSchemes() []Scheme { return config.AllSchemes() }

// NewSystem builds a simulation instance for cfg.
func NewSystem(cfg Config) (*System, error) { return sim.New(cfg) }

// Benchmarks returns the Table II benchmark names.
func Benchmarks() []string { return trace.BenchmarkNames() }

// BenchmarkTrace returns the synthetic generator for a Table II benchmark
// over a protected space of universe blocks; it panics on unknown names
// (use trace names from Benchmarks).
func BenchmarkTrace(name string, universe, seed uint64) TraceGenerator {
	return trace.MustBenchmark(name, universe, seed)
}

// RandomTrace returns a uniform random workload with the given write
// fraction.
func RandomTrace(universe uint64, writeFraction float64, seed uint64) TraceGenerator {
	return trace.Random(universe, writeFraction, seed)
}

// MixTrace returns the paper's 3-benchmark mix (gcc + mcf + lbm).
func MixTrace(universe, seed uint64) TraceGenerator {
	return trace.PaperMix(universe, seed)
}

// NewTrace returns the generator for a named workload: "mix", "random", or
// a Table II benchmark (see Benchmarks) over a protected space of universe
// blocks.
func NewTrace(name string, universe, seed uint64) (TraceGenerator, error) {
	return trace.Named(name, universe, seed)
}

// RunBenchmark is the one-call convenience: build a system for cfg, run the
// named workload ("mix", "random", or a Table II benchmark) for requests
// records, and return the result.
func RunBenchmark(cfg Config, benchmark string, requests int) (Result, error) {
	sys, err := NewSystem(cfg)
	if err != nil {
		return Result{}, err
	}
	gen, err := NewTrace(benchmark, cfg.ORAM.DataBlocks(), cfg.Seed)
	if err != nil {
		return Result{}, err
	}
	return sys.Run(gen, requests), nil
}

// ExperimentOptions scales a figure regeneration run and configures its
// parallelism: Jobs bounds the number of concurrently simulated
// (scheme, benchmark) cells (0 means GOMAXPROCS; 1 reproduces the
// sequential loops exactly), Context cancels an in-flight sweep at the next
// cell boundary, and Progress observes per-batch completion. Results are
// bit-identical for every Jobs value — see the experiments package doc for
// the determinism contract.
type ExperimentOptions = experiments.Options

// Progress reports how far a parallel experiment batch has advanced; it is
// delivered to ExperimentOptions.Progress after each completed cell.
type Progress = runner.Progress

// CellSeed derives a stable per-cell seed from a base seed and identity
// labels (scheme, benchmark, sweep index, ...). Use it to decorrelate
// repetitions of a sweep without sharing an RNG stream across cells, which
// would make results depend on scheduling.
func CellSeed(base uint64, labels ...string) uint64 {
	return runner.CellSeed(base, labels...)
}

// DefaultExperiments returns full-fidelity options (scaled geometry).
func DefaultExperiments() ExperimentOptions { return experiments.Default() }

// QuickExperiments returns reduced options for smoke runs and benchmarks.
func QuickExperiments() ExperimentOptions { return experiments.Quick() }

// MetricDesc describes one registered instrument: name, unit, help text and
// kind. The name set and meanings are the JSONL artifact schema documented
// in docs/METRICS.md.
type MetricDesc = metrics.Desc

// MetricsSnapshot is a point-in-time copy of every registered instrument,
// as embedded in Result.Metrics and in JSONL artifact records.
type MetricsSnapshot = metrics.Snapshot

// MetricDescriptors returns the full instrument catalogue of a System —
// the registry's self-description, sorted by name. The set is identical
// for every configuration (scheme-specific counters simply stay zero), so
// any valid config describes the schema; `make docscheck` validates
// docs/METRICS.md against it.
func MetricDescriptors() []MetricDesc {
	sys, err := NewSystem(TinyConfig())
	if err != nil {
		panic("iroram: TinyConfig no longer constructs: " + err.Error())
	}
	return sys.Metrics().Descs()
}

// ArtifactSchemaVersion is the JSONL artifact schema version (the "schema"
// field of every record).
const ArtifactSchemaVersion = experiments.SchemaVersion

// ArtifactRecord is one JSONL artifact line: the full metric dump of one
// simulated (figure, scheme, benchmark) cell. See docs/METRICS.md.
type ArtifactRecord = experiments.Record

// ArtifactLog accumulates artifact records during a sweep and writes them
// as JSONL sidecar files; attach one to ExperimentOptions.Artifacts. It is
// single-goroutine, like everything on the driver's calling path.
type ArtifactLog = experiments.ArtifactLog

// NewArtifactRecord assembles an artifact record from one run result; the
// figure field names the producing driver (cmd/irsim uses "irsim").
func NewArtifactRecord(figure, scheme, bench, label string, seed uint64, r Result) ArtifactRecord {
	return experiments.NewRecord(figure, scheme, bench, label, seed, r)
}

// FlightRecorder is the cycle-domain flight recorder: a fixed-capacity ring
// of cycle-stamped events sampled from the simulation. Attach one to a
// System before its first Step; a nil recorder is valid and inert, so the
// steady-state cost when tracing is off is a single branch (and zero
// allocations either way — `make alloccheck` enforces both).
type FlightRecorder = flight.Recorder

// NewFlightRecorder returns a recorder holding up to capacity events
// (0 means the default, 16384) that samples one in every sampleEvery path
// accesses (0 means every access). When the ring wraps, the oldest events
// are dropped and counted; see Trace.Dropped in the export.
func NewFlightRecorder(capacity int, sampleEvery uint64) *FlightRecorder {
	return flight.New(capacity, sampleEvery)
}

// FlightTrace is an immutable snapshot of a recorder's ring, as captured
// into Result.Flight when a traced run completes.
type FlightTrace = flight.Trace

// FlightProcess names one trace for export: each process becomes one
// Perfetto process row with the controller phases and DRAM channels as its
// threads.
type FlightProcess = flight.Process

// WriteFlightTrace writes the processes as one Chrome trace-event JSON
// document (loadable at https://ui.perfetto.dev). Output bytes are a pure
// function of the traces, so identical runs export identical files.
func WriteFlightTrace(w io.Writer, procs []FlightProcess) error {
	return flight.Write(w, procs)
}

// FlightCell pairs one simulated cell's identity with its trace snapshot,
// as accumulated by a FlightLog during a sweep.
type FlightCell = experiments.FlightCell

// FlightLog accumulates flight traces during a sweep and writes them as one
// <figure>.trace.json file per figure; attach one to
// ExperimentOptions.Flight alongside an ArtifactLog. Single-goroutine, like
// everything on the driver's calling path.
type FlightLog = experiments.FlightLog

// ObliviousStoreConfig sizes a functional oblivious store.
type ObliviousStoreConfig = obliv.Config

// ObliviousStore is a working Path ORAM over sealed memory.
type ObliviousStore = obliv.Store

// NewObliviousStore builds a functional Path ORAM: real data, real
// AES-CTR+HMAC sealing, oblivious access pattern. Set Integrity for the
// Merkle tree that additionally defeats replay of stale memory.
func NewObliviousStore(cfg ObliviousStoreConfig) (*ObliviousStore, error) {
	return obliv.NewStore(cfg)
}

// RecursiveObliviousStore is a functional Path ORAM whose position map
// lives in a second, 16x-smaller Path ORAM (Freecursive-style recursion).
type RecursiveObliviousStore = obliv.RecursiveStore

// NewRecursiveObliviousStore builds the two-level construction: client
// state shrinks to one leaf per 16 blocks, and every access costs exactly
// one position-map path plus one data path.
func NewRecursiveObliviousStore(cfg ObliviousStoreConfig) (*RecursiveObliviousStore, error) {
	return obliv.NewRecursiveStore(cfg)
}
