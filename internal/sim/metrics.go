package sim

import "iroram/internal/metrics"

// registerMetrics binds the system-level instruments into the registry,
// alongside the controller's and issuer's. Like those, registration happens
// once in New and snapshots read the live fields — Step does no registry
// work. DRAM and LLC counters are exported through closures over their
// owners' snapshot methods, sampled only when a metrics.Snapshot is taken.
func (s *System) registerMetrics() {
	r := s.reg
	r.CounterFunc("sim_cycles", "cycles",
		"simulated CPU cycles elapsed (including outstanding-miss drain)",
		func() uint64 {
			if s.lastDone > s.now {
				return s.lastDone
			}
			return s.now
		})
	r.Counter("sim_instructions", "instructions",
		"retired instructions", &s.instructions)
	r.Counter("sim_requests", "requests",
		"LLC-side memory requests consumed from the trace", &s.requests)
	r.Counter("sim_read_misses", "requests", "LLC read misses", &s.readMisses)
	r.Counter("sim_write_misses", "requests", "LLC write misses", &s.writeMisses)
	r.Counter("sim_dirty_writebacks", "blocks",
		"LLC evictions posted to the ORAM write queue", &s.dirtyWBs)

	r.Histogram("sim_miss_latency", "cycles",
		"end-to-end LLC-miss service latency (issue to data available)",
		&s.missLatency)
	r.Histogram("sim_outstanding_misses", "misses",
		"outstanding-miss window occupancy sampled at each miss issue",
		&s.outstandingDepth)

	r.CounterFunc("llc_hits", "requests", "LLC hits",
		func() uint64 { return s.llc.Stats().Hits })
	r.CounterFunc("llc_misses", "requests", "LLC misses",
		func() uint64 { return s.llc.Stats().Misses })
	r.CounterFunc("llc_evictions", "lines", "LLC evictions",
		func() uint64 { return s.llc.Stats().Evictions })
	r.CounterFunc("llc_dirty_evictions", "lines", "dirty LLC evictions",
		func() uint64 { return s.llc.Stats().DirtyEvictions })

	r.CounterFunc("dram_reads", "blocks", "DRAM block reads",
		func() uint64 { return s.mem.Stats().Reads })
	r.CounterFunc("dram_writes", "blocks", "DRAM block writes",
		func() uint64 { return s.mem.Stats().Writes })
	r.CounterFunc("dram_row_hits", "accesses", "DRAM open-row hits",
		func() uint64 { return s.mem.Stats().RowHits })
	r.CounterFunc("dram_row_misses", "accesses", "DRAM row misses",
		func() uint64 { return s.mem.Stats().RowMisses })
	r.CounterFunc("dram_busy_cycles", "cycles",
		"summed per-channel DRAM busy time in CPU cycles",
		func() uint64 { return s.mem.Stats().BusyCPUCycles })

	// Flight-recorder coverage counters. Registered unconditionally — the
	// registry's name set must not depend on whether a recorder is
	// attached (docs/METRICS.md invariance contract); with no recorder the
	// closures read a nil recorder's zeros.
	r.CounterFunc("flight_events_recorded", "events",
		"flight-recorder events recorded (including later overwritten ones)",
		func() uint64 { return s.flight.Recorded() })
	r.CounterFunc("flight_events_dropped", "events",
		"flight-recorder events overwritten by ring wrap-around",
		func() uint64 { return s.flight.Dropped() })
	r.CounterFunc("flight_accesses_sampled", "paths",
		"path accesses that armed the flight recorder (1-in-N sampling)",
		func() uint64 { return s.flight.SampledAccesses() })
}

// Metrics returns the system's metrics registry. Snapshots taken from it are
// consistent only between Step calls — the registry is live, not locked, and
// shares the System's single-goroutine contract.
func (s *System) Metrics() *metrics.Registry { return s.reg }

// SetEpochInterval enables periodic epoch snapshots every n issued paths
// (n = 0 disables them, the default). Enabling epochs trades the access
// path's zero-allocation guarantee for amortized time-series appends, so the
// harness only turns it on when asked (-epochs).
func (s *System) SetEpochInterval(n uint64) {
	s.ctrl.Stats().EpochInterval = n
}
