package iroram

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

// sweepFixture is a small but representative figure subset: table2/fig2
// re-request the Baseline row, fig10 builds the scheme grid, fig12 reuses
// both, and ablation-mlp shares the default-MLP Baseline cells.
var sweepFixture = []string{"table2", "fig2", "fig10", "fig12", "ablation-mlp"}

func runSweep(t *testing.T, dedup, overlap bool, jobs int) (stdout, artifacts string, hits int64) {
	t.Helper()
	opts := QuickExperiments()
	opts.Requests = 400
	opts.Benchmarks = []string{"gcc", "mcf"}
	opts.Jobs = jobs
	log := &ArtifactLog{}
	opts.Artifacts = log

	var tables strings.Builder
	sw := Sweep{Options: opts, Names: sweepFixture, Dedup: dedup, Overlap: overlap}
	err := sw.Run(func(fr FigureRun) {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		tables.WriteString(fr.Table.String())
		tables.WriteString("\n")
		hits += fr.Hits
	})
	if err != nil {
		t.Fatal(err)
	}
	var art strings.Builder
	if err := log.Encode(&art); err != nil {
		t.Fatal(err)
	}
	return tables.String(), art.String(), hits
}

// TestSweepDifferential pins the tentpole's determinism contract: tables and
// JSONL artifact bytes are identical across {dedup on, off} × {overlap on,
// off} × {jobs 1, 4}, and dedup actually eliminates duplicate cells.
func TestSweepDifferential(t *testing.T) {
	baseOut, baseArt, baseHits := runSweep(t, false, false, 1)
	if baseHits != 0 {
		t.Errorf("cache-less sweep reported %d hits", baseHits)
	}
	combos := []struct {
		name           string
		dedup, overlap bool
		jobs           int
	}{
		{"dedup-seq-j1", true, false, 1},
		{"dedup-seq-j4", true, false, 4},
		{"dedup-overlap-j1", true, true, 1},
		{"dedup-overlap-j4", true, true, 4},
		{"nodedup-overlap-j4", false, true, 4},
	}
	for _, c := range combos {
		out, art, hits := runSweep(t, c.dedup, c.overlap, c.jobs)
		if out != baseOut {
			t.Errorf("%s: stdout diverges from sequential cache-less run", c.name)
		}
		if art != baseArt {
			t.Errorf("%s: artifact bytes diverge from sequential cache-less run", c.name)
		}
		if c.dedup && hits == 0 {
			t.Errorf("%s: dedup enabled but no cell was served from the cache", c.name)
		}
		if !c.dedup && hits != 0 {
			t.Errorf("%s: dedup disabled but %d hits reported", c.name, hits)
		}
	}
}

// TestSweepHitAttributionDeterministic pins the per-figure cells=N hits=M
// accounting: under an overlapped dedup sweep the split must not depend on
// which driver won a duplicated cell's single-flight race — it is replayed
// in canonical figure order and must be identical for every Jobs value, and
// equal to what the sequential (non-overlapped) sweep reports.
func TestSweepHitAttributionDeterministic(t *testing.T) {
	counts := func(overlap bool, jobs int) (cells, hits map[string]int64) {
		t.Helper()
		opts := QuickExperiments()
		opts.Requests = 400
		opts.Benchmarks = []string{"gcc", "mcf"}
		opts.Jobs = jobs
		cells = make(map[string]int64)
		hits = make(map[string]int64)
		sw := Sweep{Options: opts, Names: sweepFixture, Dedup: true, Overlap: overlap}
		if err := sw.Run(func(fr FigureRun) {
			if fr.Err != nil {
				t.Fatalf("%s: %v", fr.Name, fr.Err)
			}
			cells[fr.Name] = fr.Cells
			hits[fr.Name] = fr.Hits
		}); err != nil {
			t.Fatal(err)
		}
		return cells, hits
	}

	seqCells, seqHits := counts(false, 1)
	total := int64(0)
	for _, h := range seqHits {
		total += h
	}
	if total == 0 {
		t.Fatal("fixture produced no cache hits; the attribution test is vacuous")
	}
	for _, c := range []struct {
		name    string
		overlap bool
		jobs    int
	}{
		{"overlap-j1", true, 1},
		{"overlap-j4", true, 4},
		{"seq-j4", false, 4},
	} {
		cells, hits := counts(c.overlap, c.jobs)
		for _, name := range sweepFixture {
			if cells[name] != seqCells[name] {
				t.Errorf("%s: %s cells = %d, want %d", c.name, name, cells[name], seqCells[name])
			}
			if hits[name] != seqHits[name] {
				t.Errorf("%s: %s hits = %d, want %d", c.name, name, hits[name], seqHits[name])
			}
		}
	}
}

// TestSweepStopsOnError: a failing figure is delivered last with its error,
// figures after it are not, and Run returns the error — sequential and
// overlapped.
func TestSweepStopsOnError(t *testing.T) {
	for _, overlap := range []bool{false, true} {
		opts := QuickExperiments()
		opts.Requests = 200
		opts.Benchmarks = []string{"gcc"}
		opts.Jobs = 2
		sw := Sweep{
			Options: opts,
			Names:   []string{"table2", "no-such-figure", "fig2"},
			Dedup:   true,
			Overlap: overlap,
		}
		var seen []string
		err := sw.Run(func(fr FigureRun) {
			seen = append(seen, fr.Name)
			if fr.Name == "no-such-figure" && fr.Err == nil {
				t.Errorf("overlap=%v: failing figure delivered without error", overlap)
			}
		})
		var unknown *UnknownExperimentError
		if !errors.As(err, &unknown) {
			t.Errorf("overlap=%v: err = %v, want UnknownExperimentError", overlap, err)
		}
		if len(seen) == 0 || seen[len(seen)-1] != "no-such-figure" {
			t.Errorf("overlap=%v: delivery order %v, want failure delivered last", overlap, seen)
		}
		for _, name := range seen[:len(seen)-1] {
			if name == "fig2" {
				t.Errorf("overlap=%v: figure after the failure was delivered", overlap)
			}
		}
	}
}

// TestSweepSerializesProgress: overlapped figures must never invoke two
// progress observers at once (the stderr progress line is unsynchronized
// by contract).
func TestSweepSerializesProgress(t *testing.T) {
	opts := QuickExperiments()
	opts.Requests = 200
	opts.Benchmarks = []string{"gcc"}
	opts.Jobs = 4
	var inFlight, violations atomic.Int64
	sw := Sweep{
		Options: opts,
		Names:   []string{"table2", "fig2", "fig10"},
		Dedup:   false, // every cell simulates, maximizing callback overlap
		Overlap: true,
		ProgressFor: func(string) func(Progress) {
			return func(Progress) {
				if inFlight.Add(1) > 1 {
					violations.Add(1)
				}
				inFlight.Add(-1)
			}
		},
	}
	if err := sw.Run(func(fr FigureRun) {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if v := violations.Load(); v != 0 {
		t.Errorf("%d concurrent progress observations", v)
	}
}

// TestSweepObservesEveryFigure: every figure honors the observation
// settings, whichever way its driver builds Systems. Each record with a
// metrics snapshot carries the epoch series, and every figure that
// simulates a cell exports a flight trace (fig7 is arithmetic and runs
// none).
func TestSweepObservesEveryFigure(t *testing.T) {
	opts := QuickExperiments()
	opts.Requests = 400
	opts.EpochInterval = 50
	opts.Artifacts = &ArtifactLog{}
	opts.Flight = &FlightLog{}
	opts.FlightSample = 16
	if err := (Sweep{Options: opts, Dedup: true, Overlap: true}).Run(func(fr FigureRun) {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	for _, rec := range opts.Artifacts.Records() {
		if rec.Metrics != nil && len(rec.Epochs) == 0 {
			t.Errorf("%s %s/%s label %q: record has metrics but no epochs",
				rec.Figure, rec.Scheme, rec.Benchmark, rec.Label)
		}
	}
	traced := make(map[string]bool)
	for _, c := range opts.Flight.Cells() {
		traced[c.Figure] = true
	}
	for _, name := range FigureNames {
		if name != "fig7" && !traced[name] {
			t.Errorf("%s: no flight trace", name)
		}
	}
}
