// Package runner fans independent simulation cells across a bounded worker
// pool with deterministic result collection.
//
// The experiment drivers in internal/experiments evaluate grids of
// (scheme × benchmark) cells. Every cell constructs a private sim.System and
// trace.Generator from the cell's configuration and seed, so cells share no
// mutable state and are embarrassingly parallel. This package supplies the
// one fan-out primitive they all use, Map, and the cross-pool concurrency
// bound Limit that lets several overlapping batches (the -fig all figure
// drivers) share one global worker budget.
//
// # Determinism contract
//
// Map guarantees that its result slice is ordered by cell index, never by
// completion order, and every cell function must be a pure function of its
// index (all randomness derived from an explicit per-cell seed, never from a
// shared RNG stream or from scheduling). Under that contract the output of a
// sweep is bit-identical for every worker count: Pool{Jobs: 1} reproduces
// the historical sequential loops exactly, and Pool{Jobs: n} produces the
// same bytes faster.
//
// # Concurrency contract
//
// A sim.System (and every generator, stash and DRAM model inside it) is
// single-goroutine: parallelism is always one System per worker, built
// inside the cell function. Cell functions run on pool goroutines; anything
// they close over must be read-only for the duration of the sweep.
// Cancellation is checked at cell boundaries — an individual cell, once
// started, runs to completion (the simulators have no preemption points),
// but no new cell starts after the context is cancelled or a cell fails.
package runner

import (
	"context"
	"runtime"
	"sync"
	"time"
)

// Progress reports how far a batch of cells has advanced. It is delivered to
// Pool.OnProgress after each cell completes.
type Progress struct {
	// Done and Total count completed and scheduled cells of the batch.
	Done, Total int
	// Elapsed is the wall-clock time since the batch started.
	Elapsed time.Duration
}

// ETA estimates the remaining wall-clock time by linear extrapolation of the
// per-cell rate observed so far; it returns 0 until the first cell lands.
func (p Progress) ETA() time.Duration {
	if p.Done == 0 || p.Done >= p.Total {
		return 0
	}
	return p.Elapsed / time.Duration(p.Done) * time.Duration(p.Total-p.Done)
}

// Pool configures how a batch of independent cells is executed.
//
// The zero value is valid: it runs on GOMAXPROCS workers with a background
// context and no progress reporting.
type Pool struct {
	// Jobs bounds the number of concurrently executing cells. Zero or
	// negative means runtime.GOMAXPROCS(0). Jobs == 1 executes cells inline
	// on the calling goroutine, reproducing a plain sequential loop.
	Jobs int
	// Context cancels the sweep at the next cell boundary; nil means
	// context.Background().
	Context context.Context
	// OnProgress, when non-nil, observes each completed cell. Calls are
	// serialized (never concurrent with each other), but under Jobs > 1 they
	// arrive in completion order, so Done is monotone while the cell that
	// finished is unspecified.
	OnProgress func(Progress)
	// Limit, when non-nil, additionally bounds cell execution across every
	// pool sharing the Limit: each cell acquires one token for the duration
	// of its function. Jobs stays the per-batch worker bound; Limit is the
	// machine-wide bound when several batches (the overlapped figure
	// drivers of -fig all) run concurrently. A nil Limit changes nothing.
	Limit *Limit
}

// Limit is a counting semaphore shared by several pools: together with
// Pool.Limit it caps how many cells across all participating batches
// execute at any moment, regardless of how many worker goroutines the
// individual pools spawned.
//
// Sharing a Limit is safe with single-flight memoization layered inside the
// cell functions (internal/cellcache): a waiter blocked on an in-flight
// cell does hold its token, but the owner of that cell acquired its own
// token before registering the entry and never re-acquires, so the owner
// always runs to completion and no token cycle can form.
type Limit struct {
	tokens chan struct{}
}

// NewLimit returns a Limit admitting n concurrent cells; n <= 0 means
// runtime.GOMAXPROCS(0).
func NewLimit(n int) *Limit {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Limit{tokens: make(chan struct{}, n)}
}

// Cap returns the number of concurrent cells the limit admits.
func (l *Limit) Cap() int { return cap(l.tokens) }

// acquire blocks until a token is free or ctx is cancelled.
func (l *Limit) acquire(ctx context.Context) error {
	select {
	case l.tokens <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (l *Limit) release() { <-l.tokens }

func (p Pool) jobs() int {
	if p.Jobs > 0 {
		return p.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

func (p Pool) context() context.Context {
	if p.Context != nil {
		return p.Context
	}
	return context.Background()
}

// Map runs fn(i) for every i in [0, n) on the pool's workers and returns the
// results ordered by index. The first cell error cancels the sweep: cells
// already in flight finish, no new cell starts, and the error of the
// lowest-index failed cell is returned. If the pool's context is cancelled
// the sweep stops the same way and returns the context's error.
func Map[T any](p Pool, n int, fn func(i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	outer := p.context()
	jobs := p.jobs()
	if jobs > n {
		jobs = n
	}
	start := time.Now()

	// call wraps fn with the shared cross-pool token, when one is
	// configured. The token covers exactly one cell; acquisition respects
	// cancellation so a cancelled sweep never queues for execution slots.
	call := func(ctx context.Context, i int) (T, error) {
		if p.Limit != nil {
			if err := p.Limit.acquire(ctx); err != nil {
				var zero T
				return zero, err
			}
			defer p.Limit.release()
		}
		return fn(i)
	}

	if jobs <= 1 {
		// Inline fast path: byte-for-byte the historical sequential loop,
		// with cancellation checked between cells.
		for i := 0; i < n; i++ {
			if err := outer.Err(); err != nil {
				return nil, err
			}
			v, err := call(outer, i)
			if err != nil {
				return nil, err
			}
			results[i] = v
			p.report(Progress{Done: i + 1, Total: n, Elapsed: time.Since(start)})
		}
		return results, nil
	}

	ctx, cancel := context.WithCancel(outer)
	defer cancel()

	var (
		mu       sync.Mutex
		done     int
		firstErr error
		errIndex = -1
	)
	// The feeder stops handing out indices as soon as the sweep is
	// cancelled, which is what bounds post-error work to the cells already
	// in flight.
	next := make(chan int)
	go func() {
		defer close(next)
		for i := 0; i < n; i++ {
			select {
			case next <- i:
			case <-ctx.Done():
				return
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				v, err := call(ctx, i)
				mu.Lock()
				if err != nil {
					if errIndex < 0 || i < errIndex {
						firstErr, errIndex = err, i
					}
					mu.Unlock()
					cancel()
					continue
				}
				results[i] = v
				done++
				p.report(Progress{Done: done, Total: n, Elapsed: time.Since(start)})
				mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if errIndex >= 0 {
		return nil, firstErr
	}
	if err := outer.Err(); err != nil {
		return nil, err
	}
	return results, nil
}

func (p Pool) report(pr Progress) {
	if p.OnProgress != nil {
		p.OnProgress(pr)
	}
}
