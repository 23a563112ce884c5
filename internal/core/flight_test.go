package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/rng"
)

// TestFlightDisabledZeroAllocs pins the zero-cost-when-off contract: with
// no recorder attached (the production default), a steady-state demand
// access performs no heap allocations.
func TestFlightDisabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	_, op := accessRig(t, config.Baseline(), nil)
	if avg := testing.AllocsPerRun(400, op); avg != 0 {
		t.Errorf("tracing disabled: ReadBlock allocates %.2f times per access, want 0", avg)
	}
}

// TestFlightEnabledZeroAllocs pins the stronger property: even with a
// recorder armed on every access, recording into the preallocated ring
// allocates nothing per access. The ring is small enough to wrap inside
// the measured runs, so slot reuse is what the gate sees.
func TestFlightEnabledZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	fl := flight.New(1024, 1)
	_, op := accessRig(t, config.Baseline(), fl)
	before := fl.Recorded()
	if avg := testing.AllocsPerRun(400, op); avg != 0 {
		t.Errorf("tracing enabled: ReadBlock allocates %.2f times per access, want 0", avg)
	}
	if n := fl.Recorded() - before; n <= uint64(fl.Capacity()) {
		t.Errorf("runs recorded %d events, fewer than one ring wrap (%d)", n, fl.Capacity())
	}
}

// TestFlightAccessStructure checks the span protocol: each sampled
// access contributes exactly one whole-access span, one span per phase,
// and one occupancy sample (the issuer's disarm point), and access spans
// carry valid path types.
func TestFlightAccessStructure(t *testing.T) {
	fl := flight.New(1<<20, 4)
	accessRig(t, config.Baseline(), fl)
	tr := fl.Snapshot()
	if tr.Dropped != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test capacity", tr.Dropped)
	}
	var counts [8]uint64
	for _, e := range tr.Events {
		counts[e.Kind]++
		switch e.Kind {
		case flight.KindAccess, flight.KindPhaseRead, flight.KindPhaseDecrypt:
			if int(e.Sub) >= block.NumPathTypes {
				t.Fatalf("span kind %v carries invalid path type %d", e.Kind, e.Sub)
			}
			if e.End < e.Start {
				t.Fatalf("span kind %v ends before it starts: %+v", e.Kind, e)
			}
		}
	}
	sampled := fl.SampledAccesses()
	if sampled == 0 {
		t.Fatal("no accesses sampled")
	}
	for _, k := range []flight.Kind{flight.KindAccess, flight.KindPhaseRead,
		flight.KindPhaseDecrypt, flight.KindPhaseWrite, flight.KindOccupancy} {
		if counts[k] != sampled {
			t.Errorf("%v events = %d, want one per sampled access (%d)",
				k, counts[k], sampled)
		}
	}
	if counts[flight.KindDramRun] == 0 {
		t.Error("no DRAM run events recorded for sampled accesses")
	}
	if counts[flight.KindRequest] == 0 {
		t.Error("no request spans recorded")
	}
}

// TestFlightObservesOnly pins the no-perturbation contract: the same
// workload with and without a recorder produces identical controller
// statistics.
func TestFlightObservesOnly(t *testing.T) {
	run := func(fl *flight.Recorder) (uint64, uint64) {
		cfg := config.Tiny().WithScheme(config.IROramScheme())
		mem := dram.New(cfg.DRAM)
		c, err := NewController(cfg, mem, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
		c.AttachFlight(fl)
		mem.AttachFlight(fl)
		is := NewIssuer(c, nil)
		r := rng.New(2)
		nd := cfg.ORAM.DataBlocks()
		now := uint64(0)
		for i := 0; i < 3000; i++ {
			now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
		}
		return now, c.st.PathsIssued
	}
	offDone, offPaths := run(nil)
	onDone, onPaths := run(flight.New(512, 3))
	if offDone != onDone || offPaths != onPaths {
		t.Errorf("tracing perturbed the simulation: off (done %d, paths %d), on (done %d, paths %d)",
			offDone, offPaths, onDone, onPaths)
	}
}

// TestFlightRingEvictionTracesDummySlots pins the one trace change that
// comes from servicing Ring ORAM traffic through the run-length DRAM path:
// a sampled Ring eviction path services its levels×S dummy slots after its
// own phases, while the recorder is still armed, so the slots show up as
// DRAM run and drain events between the eviction's access span and the
// issuer's occupancy sample that closes the slot. Ring's own
// one-block-per-bucket reads never sample, so every access span here is an
// eviction path.
func TestFlightRingEvictionTracesDummySlots(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.RingScheme())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	fl := flight.New(1<<20, 1)
	c.AttachFlight(fl)
	mem.AttachFlight(fl)
	is := NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
	now := uint64(0)
	for i := 0; i < 400; i++ {
		now = is.ReadBlock(now, block.ID(r.Uint64n(nd)))
	}
	tr := fl.Snapshot()
	if tr.Dropped != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test capacity", tr.Dropped)
	}
	extra := uint64((c.o.Levels - c.minLevel) * c.ring.s)
	evictions := 0
	for i, e := range tr.Events {
		if e.Kind != flight.KindAccess {
			continue
		}
		if e.Sub != uint8(block.PathEvict) {
			t.Fatalf("Ring access span with path type %d; only eviction paths sample", e.Sub)
		}
		var runBlocks, drainBlocks uint64
		for _, f := range tr.Events[i+1:] {
			if f.Kind == flight.KindOccupancy {
				break
			}
			switch f.Kind {
			case flight.KindDramRun:
				if f.Start < e.End {
					t.Fatalf("eviction %d: dummy-slot run starts at %d, before the path access ends at %d",
						evictions, f.Start, e.End)
				}
				runBlocks += f.Aux
			case flight.KindDramDrain:
				drainBlocks += f.Aux
			}
		}
		if runBlocks != extra || drainBlocks != extra {
			t.Fatalf("eviction %d: traced %d read and %d posted dummy-slot blocks, want %d each",
				evictions, runBlocks, drainBlocks, extra)
		}
		evictions++
	}
	if evictions == 0 {
		t.Fatal("no sampled Ring eviction path in the trace")
	}
}
