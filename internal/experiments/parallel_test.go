package experiments

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"

	"iroram/internal/runner"
	"iroram/internal/stats"
)

// drivers lists every figure driver at Quick scale, so the determinism
// sweep covers all fan-out shapes (grids, profile sweeps, multi-seed cells,
// single-cell drivers).
var drivers = map[string]func(Options) (*stats.Table, error){
	"table2": Table2,
	"fig2":   Fig2,
	"fig3":   Fig3,
	"fig4":   Fig4,
	"fig10":  Fig10,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"fig14":  Fig14,
	"fig15":  Fig15,
	"fig16":  Fig16,
	"notp":   NoTimingProtection,
	"corun":  CoRun,
	"ring":   Ring,
	"energy": Energy,
}

// TestParallelDeterminism asserts the tentpole guarantee: a figure run
// produces byte-identical table output no matter the worker count.
func TestParallelDeterminism(t *testing.T) {
	for name, fn := range drivers {
		t.Run(name, func(t *testing.T) {
			opts := Quick()
			opts.Requests = 800
			render := func(jobs int) string {
				o := opts
				o.Jobs = jobs
				tab, err := fn(o)
				if err != nil {
					t.Fatalf("jobs=%d: %v", jobs, err)
				}
				return tab.String()
			}
			seq := render(1)
			if par := render(4); par != seq {
				t.Errorf("output differs between -jobs 1 and -jobs 4:\n--- jobs=1\n%s--- jobs=4\n%s", seq, par)
			}
		})
	}
}

// TestZSearchParallelDeterminism asserts the greedy search picks the same
// profile and records the same accepted moves (label, cycles, background
// evictions) at every worker count.
func TestZSearchParallelDeterminism(t *testing.T) {
	opts := Quick()
	opts.Requests = 800
	run := func(jobs int) (string, []Record) {
		o := opts
		o.Jobs = jobs
		o.Artifacts = &ArtifactLog{}
		prof, err := ZSearch(o)
		if err != nil {
			t.Fatalf("jobs=%d: %v", jobs, err)
		}
		return DescribeProfile(prof, o.Base.ORAM.TopLevels), o.Artifacts.Records()
	}
	seqProf, seqMoves := run(1)
	parProf, parMoves := run(4)
	if seqProf != parProf {
		t.Errorf("profile differs: jobs=1 %s vs jobs=4 %s", seqProf, parProf)
	}
	if len(seqMoves) != len(parMoves) {
		t.Fatalf("move counts differ: %d vs %d", len(seqMoves), len(parMoves))
	}
	for i := range seqMoves {
		if !reflect.DeepEqual(seqMoves[i], parMoves[i]) {
			t.Errorf("move %d differs: %+v vs %+v", i, seqMoves[i], parMoves[i])
		}
	}
}

// TestSweepCancellation asserts a sweep stops promptly once its context is
// cancelled: no new cell starts, and the driver reports context.Canceled.
func TestSweepCancellation(t *testing.T) {
	opts := Quick()
	opts.Requests = 800
	opts.Jobs = 2

	t.Run("pre-cancelled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		o := opts
		o.Context = ctx
		start := time.Now()
		if _, err := Fig10(o); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Errorf("pre-cancelled sweep still took %v", elapsed)
		}
	})

	t.Run("mid-flight", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var mu sync.Mutex
		cellsSeen := 0
		o := opts
		o.Context = ctx
		o.Progress = func(p runner.Progress) {
			mu.Lock()
			defer mu.Unlock()
			cellsSeen++
			if cellsSeen == 1 {
				cancel() // cancel after the first completed cell
			}
		}
		if _, err := Fig10(o); !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		mu.Lock()
		defer mu.Unlock()
		// 2 workers and a cancel after the first completion: only the cells
		// already in flight may land afterwards.
		if cellsSeen > 4 {
			t.Errorf("%d cells completed after cancellation", cellsSeen)
		}
	})
}

// TestProgressReporting asserts the drivers surface per-batch progress with
// a sane Done/Total sequence.
func TestProgressReporting(t *testing.T) {
	opts := Quick()
	opts.Requests = 600
	opts.Jobs = 1
	var mu sync.Mutex
	total := 0
	batches := map[int]int{}
	opts.Progress = func(p runner.Progress) {
		mu.Lock()
		defer mu.Unlock()
		total++
		if p.Done < 1 || p.Done > p.Total {
			t.Errorf("implausible progress %d/%d", p.Done, p.Total)
		}
		batches[p.Total]++
	}
	if _, err := Fig10(opts); err != nil {
		t.Fatal(err)
	}
	// Fig 10 at Quick scale: 6 schemes × (3 benchmarks + mix) = 24 cells.
	if want := 24; total != want {
		t.Errorf("saw %d progress reports, want %d", total, want)
	}
	if got := batches[24]; got != 24 {
		t.Errorf("batch of 24 cells reported %d times, want 24", got)
	}
}
