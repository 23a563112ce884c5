package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, jobs := range []int{1, 2, 4, 16} {
		got, err := Map(Pool{Jobs: jobs}, 50, func(i int) (int, error) {
			// Finish out of order: later indices sleep less.
			time.Sleep(time.Duration(50-i) * 10 * time.Microsecond)
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("jobs=%d: result[%d] = %d, want %d", jobs, i, v, i*i)
			}
		}
	}
}

func TestMapBoundsConcurrency(t *testing.T) {
	const jobs = 3
	var cur, peak atomic.Int64
	_, err := Map(Pool{Jobs: jobs}, 40, func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > jobs {
		t.Errorf("observed %d concurrent cells, want <= %d", p, jobs)
	}
}

func TestMapReturnsLowestIndexError(t *testing.T) {
	errBoom := errors.New("boom")
	for _, jobs := range []int{1, 4} {
		_, err := Map(Pool{Jobs: jobs}, 20, func(i int) (int, error) {
			if i == 7 || i == 13 {
				return 0, fmt.Errorf("cell %d: %w", i, errBoom)
			}
			return i, nil
		})
		if err == nil || !errors.Is(err, errBoom) {
			t.Fatalf("jobs=%d: err = %v, want wrapped boom", jobs, err)
		}
		// Sequential must report cell 7; parallel reports the lowest failed
		// index among the cells that ran, which is 7 here because cell 7 is
		// always dispatched before cell 13.
		if want := "cell 7: boom"; err.Error() != want {
			t.Errorf("jobs=%d: err = %q, want %q", jobs, err.Error(), want)
		}
	}
}

func TestMapErrorStopsDispatch(t *testing.T) {
	var started atomic.Int64
	_, err := Map(Pool{Jobs: 2}, 1000, func(i int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("first cell fails")
		}
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	if n := started.Load(); n > 20 {
		t.Errorf("%d cells started after an immediate failure; dispatch not stopped", n)
	}
}

func TestMapContextCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var done atomic.Int64
	var once sync.Once
	start := time.Now()
	_, err := Map(Pool{Jobs: 2, Context: ctx}, 1000, func(i int) (int, error) {
		done.Add(1)
		once.Do(cancel) // cancel as soon as the first cell runs
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v; want prompt return", elapsed)
	}
	if n := done.Load(); n > 20 {
		t.Errorf("%d cells ran after cancellation", n)
	}
}

func TestMapPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	_, err := Map(Pool{Jobs: 1, Context: ctx}, 10, func(i int) (int, error) {
		ran = true
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("a cell ran under a pre-cancelled context")
	}
}

func TestMapProgress(t *testing.T) {
	for _, jobs := range []int{1, 3} {
		var mu sync.Mutex
		var seen []int
		_, err := Map(Pool{Jobs: jobs, OnProgress: func(p Progress) {
			mu.Lock()
			defer mu.Unlock()
			if p.Total != 12 {
				t.Errorf("Total = %d, want 12", p.Total)
			}
			seen = append(seen, p.Done)
		}}, 12, func(i int) (int, error) { return i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(seen) != 12 {
			t.Fatalf("jobs=%d: %d progress reports, want 12", jobs, len(seen))
		}
		for i, d := range seen {
			if d != i+1 {
				t.Fatalf("jobs=%d: Done sequence %v not monotone by 1", jobs, seen)
			}
		}
	}
}

func TestProgressETA(t *testing.T) {
	p := Progress{Done: 2, Total: 6, Elapsed: 2 * time.Second}
	if eta := p.ETA(); eta != 4*time.Second {
		t.Errorf("ETA = %v, want 4s", eta)
	}
	if eta := (Progress{Done: 0, Total: 5}).ETA(); eta != 0 {
		t.Errorf("ETA before first cell = %v, want 0", eta)
	}
	if eta := (Progress{Done: 5, Total: 5, Elapsed: time.Second}).ETA(); eta != 0 {
		t.Errorf("ETA at completion = %v, want 0", eta)
	}
}

func TestMapZeroCells(t *testing.T) {
	got, err := Map(Pool{}, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(got) != 0 {
		t.Fatalf("got %v, %v", got, err)
	}
}

// TestLimitBoundsAcrossPools runs several concurrent Map batches sharing one
// Limit and asserts the cross-pool peak concurrency never exceeds the
// limit's capacity even though each pool alone could run more workers.
func TestLimitBoundsAcrossPools(t *testing.T) {
	const capTokens = 2
	limit := NewLimit(capTokens)
	if limit.Cap() != capTokens {
		t.Fatalf("Cap() = %d, want %d", limit.Cap(), capTokens)
	}
	var cur, peak atomic.Int64
	cell := func(i int) (struct{}, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(200 * time.Microsecond)
		cur.Add(-1)
		return struct{}{}, nil
	}
	var wg sync.WaitGroup
	for pool := 0; pool < 4; pool++ {
		jobs := 1 + pool // cover the inline path (jobs=1) and worker pools
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := Map(Pool{Jobs: jobs, Limit: limit}, 12, cell); err != nil {
				t.Errorf("jobs=%d: %v", jobs, err)
			}
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > capTokens {
		t.Errorf("observed %d concurrent cells across pools, want <= %d", p, capTokens)
	}
}

// TestLimitAcquireCancellation: a cancelled sweep must not sit in the token
// queue — Map returns the context error instead of executing more cells.
func TestLimitDoesNotQueueAfterCancel(t *testing.T) {
	limit := NewLimit(1)
	ctx, cancel := context.WithCancel(context.Background())
	blocker := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // occupy the only token until after the cancelled Map returns
		defer wg.Done()
		_, err := Map(Pool{Jobs: 1, Limit: limit}, 1, func(int) (int, error) {
			<-blocker
			return 0, nil
		})
		if err != nil {
			t.Errorf("token holder: %v", err)
		}
	}()
	// Wait for the token to be held, then cancel the second sweep.
	for len(limit.tokens) == 0 {
		time.Sleep(10 * time.Microsecond)
	}
	cancel()
	ran := false
	_, err := Map(Pool{Jobs: 1, Context: ctx, Limit: limit}, 1, func(int) (int, error) {
		ran = true
		return 0, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
	if ran {
		t.Error("cell ran despite cancelled context and exhausted limit")
	}
	close(blocker)
	wg.Wait()
}

// TestLimitDefaultsToGOMAXPROCS pins the n <= 0 fallback.
func TestLimitDefaultsToGOMAXPROCS(t *testing.T) {
	if got := NewLimit(0).Cap(); got < 1 {
		t.Errorf("Cap() = %d, want >= 1", got)
	}
}
