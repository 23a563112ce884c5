// Package sim wires the full system together: the trace-driven core model,
// the LLC, the ORAM controller behind its pacing issuer, and the DRAM
// timing model. One System runs one workload under one scheme; experiments
// construct a fresh System per (scheme, benchmark) pair so runs never share
// state.
//
// # Results
//
// Run and Result return a Result: the run's counters, a metrics snapshot,
// copies of the controller's per-level histograms and its per-level
// Utilization, all as of capture. A Result never changes afterwards, so a
// caller may step one System in Run slices and keep the Result of each
// slice (Fig 3 and Fig 13 take one per quarter of their run).
//
// # Concurrency contract
//
// A System is strictly single-goroutine: nothing in it (controller, stash,
// caches, DRAM model, RNG streams) is synchronized, and a System must never
// be shared across goroutines. Parallel sweeps get their speedup one level
// up — internal/runner fans independent cells across workers, and each
// worker builds its own System via New inside the cell. Constructing
// Systems concurrently is safe (New touches only its own allocations). New
// itself loads a large tree on several goroutines (tree.Load) and joins
// them before it returns.
//
// # Determinism
//
// Given a config.System (including its Seed) and a deterministic
// trace.Generator, a run is bit-reproducible: all randomness flows from
// rng.New(cfg.Seed) streams owned by this System. That is what lets the
// experiment harness promise byte-identical tables for every worker count.
//
// # Zero-allocation contract
//
// Step and everything it calls — LLC access, path issue and service, DRAM
// timing, metric updates — must not allocate in steady state
// (TestPathAccessZeroAllocs and the per-package *ZeroAllocs gates). The
// observability layer respects this: every instrument is a plain field
// updated in place, the metrics.Registry is consulted only at construction
// and Snapshot time, and the opt-in epoch time series (SetEpochInterval) is
// the one feature allowed to allocate, which is why it defaults to off.
package sim

import (
	"iroram/internal/block"
	"iroram/internal/cache"
	"iroram/internal/config"
	"iroram/internal/core"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/metrics"
	"iroram/internal/rng"
	"iroram/internal/trace"
)

// System is one fully wired simulation instance.
type System struct {
	cfg    config.System
	mem    *dram.Model
	llc    *cache.Cache
	ctrl   *core.Controller
	issuer *core.Issuer
	reg    *metrics.Registry

	now          uint64
	lastDone     uint64
	outstanding  []uint64
	instructions uint64
	requests     uint64
	readMisses   uint64
	writeMisses  uint64
	dirtyWBs     uint64

	// missLatency and outstandingDepth are observed inline in Step; Hist
	// observations are plain array increments, preserving the steady-state
	// zero-allocation contract of the access path.
	missLatency      metrics.Hist
	outstandingDepth metrics.Hist

	// flight, when non-nil, is the attached cycle-domain flight recorder;
	// Result captures its snapshot (see AttachFlight).
	flight *flight.Recorder
}

// AttachFlight wires a flight recorder into the system: the controller
// records sampled access/phase spans, the DRAM model records per-run
// service and drain events, and Result carries a trace snapshot in
// Result.Flight. Attach before the first Step; the recorder shares the
// System's single-goroutine contract. Recording only observes — every
// counter and histogram is identical with tracing on or off — and the
// flight_* drop/coverage metrics registered in New read the recorder
// lazily, so the registry's name set does not depend on attachment.
func (s *System) AttachFlight(fl *flight.Recorder) {
	s.flight = fl
	s.ctrl.AttachFlight(fl)
	s.mem.AttachFlight(fl)
}

// New builds a System for the given configuration.
func New(cfg config.System) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	mem := dram.New(cfg.DRAM)
	r := rng.New(cfg.Seed)
	ctrl, err := core.NewController(cfg, mem, r)
	if err != nil {
		return nil, err
	}
	llc := cache.New(cfg.LLC.Sets(), cfg.LLC.Ways)
	scanRNG := rng.New(cfg.Seed ^ 0xD1B54A32D192ED03)
	newScan := cache.NewDWBScanner
	if cfg.Scheme.ProactiveRemap {
		newScan = cache.NewLRUScanner
	}
	scanner := newScan(llc, func() int { return scanRNG.Intn(llc.Sets()) })
	s := &System{
		cfg:    cfg,
		mem:    mem,
		llc:    llc,
		ctrl:   ctrl,
		issuer: core.NewIssuer(ctrl, scanner),
	}
	s.reg = metrics.NewRegistry()
	ctrl.RegisterMetrics(s.reg)
	s.issuer.RegisterMetrics(s.reg)
	s.registerMetrics()
	return s, nil
}

// Controller exposes the ORAM controller (read-only use by experiments).
func (s *System) Controller() *core.Controller { return s.ctrl }

// Now returns the current simulated CPU cycle.
func (s *System) Now() uint64 { return s.now }

// Step consumes one trace record: the instruction gap retires at the core's
// IPC, then the memory access walks the LLC and (on a miss) the ORAM. The
// out-of-order core sustains up to CPU.MLP outstanding misses: it stalls
// only when the ROB would fill, which puts memory-bound workloads in the
// throughput-limited regime where Path ORAM's bandwidth demand is the
// bottleneck (Section II-B).
func (s *System) Step(req trace.Request) {
	s.instructions += uint64(req.GapInstr)
	s.now += uint64(req.GapInstr) / uint64(s.cfg.CPU.IPC)
	s.requests++
	s.now += s.cfg.LLC.HitLatency
	if s.llc.Access(req.Addr, req.Write) {
		return
	}
	if req.Write {
		s.writeMisses++
	} else {
		s.readMisses++
	}
	// ROB-limited MLP: wait for the oldest outstanding miss when full.
	if len(s.outstanding) >= s.cfg.CPU.MLP {
		if s.outstanding[0] > s.now {
			s.now = s.outstanding[0]
		}
		s.outstanding = s.outstanding[1:]
	}
	// Write-allocate: the block is fetched either way; a write miss leaves
	// the line dirty. The victim goes to the ORAM if dirty — and under
	// LLC-D even when clean, because the block must rejoin the tree.
	victim := s.llc.Insert(req.Addr, req.Write)
	if victim.Valid && (victim.Dirty || s.cfg.Scheme.DelayedRemap) {
		s.dirtyWBs++
		s.now = s.issuer.PostWrite(s.now, block.ID(victim.Addr))
	}
	done := s.issuer.ReadBlock(s.now, block.ID(req.Addr))
	s.missLatency.Observe(done - s.now)
	s.outstanding = append(s.outstanding, done)
	s.outstandingDepth.Observe(uint64(len(s.outstanding)))
	if done > s.lastDone {
		s.lastDone = done
	}
}

// Run consumes up to maxRequests records from gen and returns the result.
func (s *System) Run(gen trace.Generator, maxRequests int) Result {
	for i := 0; i < maxRequests; i++ {
		req, ok := gen.Next()
		if !ok {
			break
		}
		s.Step(req)
	}
	return s.Result(gen.Name())
}

// Result summarizes one run.
//
// A Result is immutable once returned: the producing System never writes to
// it again, even when it runs on and captures more Results. Metrics is a
// fresh snapshot, ORAM's per-level histograms and Utilization are copies,
// and ORAM.Epochs only grows past the captured length. Every consumer —
// table arithmetic, artifact records, the cross-figure cell cache that
// hands one stored Result to many requesters — only reads it.
// TestCachedResultImmutable (internal/experiments) and
// TestResultDetachedFromSystem pin this contract.
type Result struct {
	Name         string
	Cycles       uint64
	Instructions uint64
	Requests     uint64
	ReadMisses   uint64
	WriteMisses  uint64
	DirtyWBs     uint64
	ORAM         core.Stats
	DRAM         dram.Stats
	LLC          cache.Stats

	// Utilization is the controller's per-level space utilization at
	// capture time (Fig 3, Fig 4, Fig 13).
	Utilization []float64

	// Metrics is the full registry snapshot at capture time — the record
	// the JSONL artifact emitter serializes (docs/METRICS.md).
	Metrics *metrics.Snapshot

	// Flight is the flight-recorder trace snapshot, nil unless a recorder
	// was attached (AttachFlight). Like Metrics it is immutable: the
	// snapshot copies the ring, so later recording never mutates it.
	Flight *flight.Trace
}

// Result captures the current counters without consuming more trace.
func (s *System) Result(name string) Result {
	cycles := s.now
	if s.lastDone > cycles {
		cycles = s.lastDone // drain outstanding misses
	}
	st := *s.ctrl.Stats()
	st.HitLevels = st.HitLevels.Clone()
	st.MigrationFetched = st.MigrationFetched.Clone()
	st.MigrationPreexisting = st.MigrationPreexisting.Clone()
	return Result{
		Name:         name,
		Cycles:       cycles,
		Instructions: s.instructions,
		Requests:     s.requests,
		ReadMisses:   s.readMisses,
		WriteMisses:  s.writeMisses,
		DirtyWBs:     s.dirtyWBs,
		ORAM:         st,
		DRAM:         s.mem.Stats(),
		LLC:          s.llc.Stats(),
		Utilization:  s.ctrl.Utilization(),
		Metrics:      s.reg.Snapshot(),
		Flight:       s.flight.Snapshot(),
	}
}

// ReadMPKI returns LLC read misses per kilo-instruction.
func (r Result) ReadMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.ReadMisses) / (float64(r.Instructions) / 1000)
}

// WriteMPKI returns dirty write-backs per kilo-instruction (the Table II
// write metric).
func (r Result) WriteMPKI() float64 {
	if r.Instructions == 0 {
		return 0
	}
	return float64(r.DirtyWBs) / (float64(r.Instructions) / 1000)
}

// IPC returns retired instructions per cycle.
func (r Result) IPC() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.Instructions) / float64(r.Cycles)
}
