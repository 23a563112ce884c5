package sim

import (
	"bytes"
	"testing"

	"iroram/internal/config"
	"iroram/internal/flight"
	"iroram/internal/trace"
)

// runTraced runs a Tiny cell of scheme sch with an every-access recorder
// large enough that nothing drops (ρ, the busiest scheme, records about
// 674k events here), and returns the result.
func runTraced(t *testing.T, sch config.Scheme, seed uint64) Result {
	t.Helper()
	cfg := config.Tiny().WithScheme(sch)
	cfg.Seed = seed
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.AttachFlight(flight.New(1<<21, 1))
	gen := trace.Random(cfg.ORAM.DataBlocks(), 0.3, cfg.Seed)
	return s.Run(gen, 3000)
}

// TestFlightReconcilesPhaseCounters pins the acceptance criterion that
// trace totals agree with the existing aggregate counters, for every
// compared scheme (ρ's small-tree paths included): with 1-in-1 sampling
// and no ring drops, the summed phase span durations must equal the
// controller's phase cycle counters exactly, and the whole-access spans of
// eviction paths must sum to the background-eviction cycle counter. Ring
// ORAM stays out: its reads do not sample by design (see
// core.Controller.AttachFlight).
func TestFlightReconcilesPhaseCounters(t *testing.T) {
	for _, sch := range config.AllSchemes() {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			res := runTraced(t, sch, 7)
			tr := res.Flight
			if tr == nil {
				t.Fatal("Result.Flight is nil with a recorder attached")
			}
			if tr.Dropped != 0 {
				t.Fatalf("ring dropped %d events; enlarge the test capacity", tr.Dropped)
			}
			var readSum, writeSum, evictSum uint64
			for _, e := range tr.Events {
				switch e.Kind {
				case flight.KindPhaseRead:
					readSum += e.End - e.Start
				case flight.KindPhaseWrite:
					writeSum += e.End - e.Start
				case flight.KindAccess:
					if e.Sub == 4 { // block.PathEvict
						evictSum += e.End - e.Start
					}
				}
			}
			c := res.Metrics.Counters
			if got, want := readSum, c["oram_phase_read_cycles"]; got != want {
				t.Errorf("summed read spans = %d, oram_phase_read_cycles = %d", got, want)
			}
			if got, want := writeSum, c["oram_phase_writeback_cycles"]; got != want {
				t.Errorf("summed writeback spans = %d, oram_phase_writeback_cycles = %d", got, want)
			}
			if got, want := evictSum, c["oram_phase_evict_cycles"]; got != want {
				t.Errorf("summed eviction-access spans = %d, oram_phase_evict_cycles = %d", got, want)
			}
			if got, want := c["flight_accesses_sampled"], c["oram_paths_issued"]; got != want {
				t.Errorf("flight_accesses_sampled = %d, oram_paths_issued = %d (1-in-1 sampling)", got, want)
			}
			if got, want := c["flight_events_recorded"], tr.Recorded; got != want {
				t.Errorf("flight_events_recorded = %d, trace Recorded = %d", got, want)
			}
		})
	}
}

// TestFlightTraceDeterministic pins byte-identical export across repeated
// runs of the same (config, seed) cell.
func TestFlightTraceDeterministic(t *testing.T) {
	export := func() []byte {
		res := runTraced(t, config.Baseline(), 11)
		var buf bytes.Buffer
		if err := flight.Write(&buf, []flight.Process{{Name: "tiny/random", Trace: res.Flight}}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := export(), export()
	if !bytes.Equal(a, b) {
		t.Error("repeated runs of the same cell/seed exported different traces")
	}
}

// TestFlightDoesNotPerturbCounters pins the observe-only contract at the
// system level: attaching a recorder changes no counter and no cycle.
func TestFlightDoesNotPerturbCounters(t *testing.T) {
	run := func(attach bool) Result {
		cfg := config.Tiny().WithScheme(config.IROramScheme())
		cfg.Seed = 3
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if attach {
			s.AttachFlight(flight.New(4096, 5))
		}
		gen := trace.Random(cfg.ORAM.DataBlocks(), 0.3, cfg.Seed)
		return s.Run(gen, 2000)
	}
	off, on := run(false), run(true)
	if off.Cycles != on.Cycles || off.ORAM.PathsIssued != on.ORAM.PathsIssued {
		t.Errorf("tracing perturbed the run: off (cycles %d, paths %d), on (cycles %d, paths %d)",
			off.Cycles, off.ORAM.PathsIssued, on.Cycles, on.ORAM.PathsIssued)
	}
	for name, v := range off.Metrics.Counters {
		if name == "flight_events_recorded" || name == "flight_events_dropped" ||
			name == "flight_accesses_sampled" {
			continue
		}
		if on.Metrics.Counters[name] != v {
			t.Errorf("counter %s: off %d, on %d", name, v, on.Metrics.Counters[name])
		}
	}
}
