package iroram

import (
	"context"
	"errors"
	"sync"
	"time"

	"iroram/internal/cellcache"
	"iroram/internal/experiments"
	"iroram/internal/runner"
)

// FigureRun reports the outcome of one experiment within a Sweep.
type FigureRun struct {
	// Name is the experiment name the run regenerated.
	Name string
	// Table holds the figure's rows and series; nil when Err is set.
	Table *Table
	// Err is the error that stopped the figure's sweep, nil on success.
	Err error
	// Elapsed is the figure's wall-clock time. Under an overlapped sweep it
	// includes time spent waiting for the shared worker budget.
	Elapsed time.Duration
	// Cells counts the simulation cells the figure requested (cached cells
	// included — they still drive progress); Hits counts how many of
	// those were served from the shared cell cache. Both are
	// deterministic for every Jobs value and for Overlap on or off: an
	// overlapped sweep replays the figures' requested cell keys in Names
	// order after the drivers finish, so a duplicated cell's hit is always
	// attributed to the canonically-later figure — exactly the attribution
	// a sequential sweep produces — no matter which driver actually won the
	// single-flight race.
	Cells, Hits int64
}

// Sweep runs a set of experiments as one deduplicated batch. With Dedup the
// figures share a single cell-result cache, so a cell re-requested by
// several drivers (the Baseline row alone is rebuilt by table2, fig2, fig12
// and the ablations) simulates once; with Overlap every driver is submitted
// concurrently against one shared worker budget instead of running as
// serial barriers. Either way the printed tables and JSONL artifacts are
// byte-identical to a plain sequential, cache-less run — memoization and
// overlap change only where the wall-clock time goes. See the
// internal/experiments package doc for the determinism argument.
type Sweep struct {
	// Options scales every figure. Its Cache, Limit, Counters and Progress
	// fields are managed by Run and must be left nil; Artifacts and Flight,
	// when non-nil, receive every figure's records and traces in Names order
	// regardless of execution order.
	Options ExperimentOptions
	// Names lists the experiments to run, in delivery order. Empty means
	// FigureNames. Each must be a name Experiment accepts.
	Names []string
	// Dedup shares one cell-result cache across the sweep.
	Dedup bool
	// Overlap submits all drivers concurrently, bounded by one shared
	// worker budget of Options.Jobs cells (GOMAXPROCS when Jobs <= 0).
	// Tables are buffered and delivered in Names order.
	Overlap bool
	// ProgressFor, when non-nil, supplies the per-figure progress observer.
	// Observer calls are serialized across the whole sweep, even when
	// figures overlap.
	ProgressFor func(name string) func(Progress)
}

// Run executes the sweep and calls deliver once per figure in Names order.
// On failure, delivery stops after the failing figure's FigureRun and Run
// returns its error; under Overlap the first failure cancels the remaining
// drivers at the next cell boundary.
func (s Sweep) Run(deliver func(FigureRun)) error {
	names := s.Names
	if len(names) == 0 {
		names = FigureNames
	}
	var cache *cellcache.Cache
	if s.Dedup {
		cache = cellcache.New()
	}
	if !s.Overlap || len(names) == 1 {
		for _, name := range names {
			fr := s.runFigure(name, s.Options, cache, &experiments.CellCounters{})
			deliver(fr)
			if fr.Err != nil {
				return fr.Err
			}
		}
		return nil
	}
	return s.runOverlapped(names, cache, deliver)
}

// runFigure executes one experiment with the supplied counters and reports
// its outcome. The options value is taken by value: each figure gets its
// own copy to mutate.
func (s Sweep) runFigure(name string, opts ExperimentOptions, cache *cellcache.Cache,
	counters *experiments.CellCounters) FigureRun {
	opts.Cache = cache
	opts.Counters = counters
	if s.ProgressFor != nil {
		opts.Progress = s.ProgressFor(name)
	}
	start := time.Now()
	tab, err := Experiment(name, opts)
	return FigureRun{
		Name:    name,
		Table:   tab,
		Err:     err,
		Elapsed: time.Since(start),
		Cells:   counters.Cells.Load(),
		Hits:    counters.Hits.Load(),
	}
}

// runOverlapped fans every figure driver onto its own goroutine under one
// shared cell budget, then merges artifacts and delivers tables in
// canonical order. Output bytes match the sequential path exactly: each
// figure records into a private artifact log, merged in Names order.
func (s Sweep) runOverlapped(names []string, cache *cellcache.Cache, deliver func(FigureRun)) error {
	outer := context.Background()
	if s.Options.Context != nil {
		outer = s.Options.Context
	}
	ctx, cancel := context.WithCancel(outer)
	defer cancel()
	limit := runner.NewLimit(s.Options.Jobs)

	var progressMu sync.Mutex
	results := make([]FigureRun, len(names))
	logs := make([]*ArtifactLog, len(names))
	flogs := make([]*FlightLog, len(names))
	counters := make([]*experiments.CellCounters, len(names))
	var wg sync.WaitGroup
	for i, name := range names {
		opts := s.Options
		opts.Context = ctx
		opts.Limit = limit
		if opts.Artifacts != nil {
			logs[i] = &ArtifactLog{}
			opts.Artifacts = logs[i]
		}
		if opts.Flight != nil {
			flogs[i] = &FlightLog{}
			opts.Flight = flogs[i]
		}
		if s.ProgressFor != nil {
			// Serialize progress observation across figures so stderr
			// rendering never races; install the wrapped observer here and
			// keep runFigure's own hook disabled.
			if obs := s.ProgressFor(name); obs != nil {
				opts.Progress = func(p Progress) {
					progressMu.Lock()
					defer progressMu.Unlock()
					obs(p)
				}
			}
		}
		counters[i] = &experiments.CellCounters{}
		wg.Add(1)
		go func(i int, name string, opts ExperimentOptions) {
			defer wg.Done()
			sub := s
			sub.ProgressFor = nil // observer already installed, pre-wrapped
			fr := sub.runFigure(name, opts, cache, counters[i])
			if fr.Err != nil {
				cancel() // first failure stops the others at a cell boundary
			}
			results[i] = fr
		}(i, name, opts)
	}
	wg.Wait()

	// The live Hits split is a race artifact: whichever driver requested a
	// duplicated cell first simulated it, and everyone else hit. Replay the
	// figures' requested keys in canonical Names order against one seen-set
	// to recover the attribution a sequential sweep would report — the first
	// canonical requester of a key misses, every later request (across or
	// within figures; order within one figure cannot matter) hits. The key
	// multisets are scheduling-independent, so so is this split.
	if cache != nil {
		seen := make(map[string]struct{})
		for i := range results {
			var hits int64
			for _, k := range counters[i].Keys() {
				if _, dup := seen[k]; dup {
					hits++
				} else {
					seen[k] = struct{}{}
				}
			}
			results[i].Hits = hits
		}
	}

	// Deliver the figures that completed before the first (canonical-order)
	// failure, then the failure itself. A driver cancelled because of
	// another driver's error reports context.Canceled; prefer the root
	// cause as the sweep's failing figure so cancellation noise never
	// masks it.
	firstBad, fail := len(results), -1
	for i := range results {
		if results[i].Err == nil {
			continue
		}
		if firstBad > i {
			firstBad = i
		}
		if fail < 0 || (errors.Is(results[fail].Err, context.Canceled) &&
			!errors.Is(results[i].Err, context.Canceled)) {
			fail = i
		}
	}
	for i := 0; i < firstBad; i++ {
		if s.Options.Artifacts != nil && logs[i] != nil {
			for _, rec := range logs[i].Records() {
				s.Options.Artifacts.Add(rec)
			}
		}
		if s.Options.Flight != nil && flogs[i] != nil {
			for _, c := range flogs[i].Cells() {
				s.Options.Flight.Add(c)
			}
		}
		deliver(results[i])
	}
	if fail >= 0 {
		deliver(results[fail])
		return results[fail].Err
	}
	return nil
}
