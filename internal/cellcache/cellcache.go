// Package cellcache memoizes simulation cell results across experiment
// drivers.
//
// The evaluation pipeline replays the paper's studies as ~16 figure drivers,
// and the drivers re-simulate identical cells: Baseline × all benchmarks
// alone is rebuilt by Table2, Fig2, Fig12's normalization row and the
// ablation bases, and the scheme grids of Fig10/11/14/15/energy overlap
// further. Every cell is a pure function of its fully-resolved configuration
// (internal/experiments documents the determinism contract), so exact
// memoization is safe: the cache key (Key) prints the post-override
// config.System in Go syntax plus the benchmark name, request count and
// epoch interval — everything the cell's result depends on.
//
// # Single-flight contract
//
// Do runs the compute function at most once per key, ever: the first
// requester simulates, concurrent duplicates block until that in-flight
// computation completes, and later requesters get the memoized result in
// O(1). A blocked duplicate waits at most one cell (cells run to completion;
// the simulators have no preemption points), which preserves the experiment
// engine's cancellation-at-cell-boundaries semantics.
//
// # Immutability contract
//
// Do returns the one stored sim.Result value to every requester. A
// sim.Result is immutable after the producing System returns it (see the
// sim package doc); consumers — table math, artifact records — only read
// it. TestCachedResultImmutable in internal/experiments pins that contract:
// if it ever fails, hits must start deep-copying.
package cellcache

import (
	"sync"

	"iroram/internal/sim"
)

// Cache is a concurrency-safe, single-flight memo of cell results keyed by
// the canonical cell fingerprint (Key). The zero value is not usable; call
// New.
type Cache struct {
	mu      sync.Mutex
	entries map[string]*entry
}

// entry is one cell's slot: done closes when the first requester's compute
// finishes, after which res and err are immutable.
type entry struct {
	done chan struct{}
	res  sim.Result
	err  error
}

// New returns an empty cell-result cache.
func New() *Cache {
	return &Cache{entries: make(map[string]*entry)}
}

// Do returns the memoized result for key, running compute at most once per
// key across all goroutines: the first caller computes, concurrent callers
// with the same key block until it finishes, and later callers return
// immediately. hit reports whether this call was served without running
// compute (a completed entry or an in-flight wait both count). Errors are
// memoized like results: a failed cell reports the same error to every
// requester (the experiment engine aborts the sweep on the first error, so
// retries never arise).
//
// compute must not call back into the same Cache — cells do not request
// other cells — and must return; if it panics, the process is tearing down
// anyway (the experiment workers do not recover).
func (c *Cache) Do(key string, compute func() (sim.Result, error)) (res sim.Result, hit bool, err error) {
	c.mu.Lock()
	if e, ok := c.entries[key]; ok {
		c.mu.Unlock()
		<-e.done
		return e.res, true, e.err
	}
	e := &entry{done: make(chan struct{})}
	c.entries[key] = e
	c.mu.Unlock()

	e.res, e.err = compute()
	close(e.done)
	return e.res, false, e.err
}
