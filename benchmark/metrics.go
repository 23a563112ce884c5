package main

import (
	"slices"
	"time"
)

// series is one metric's samples: one per repetition or window for a
// host metric, a single value for a simulated one, which repeats exactly.
type series struct {
	name   string
	unit   string
	values []float64
}

func one(v float64) []float64 { return []float64{v} }

func perRep(reps []rep, f func(rep) float64) []float64 {
	out := make([]float64, len(reps))
	for i, r := range reps {
		out[i] = f(r)
	}
	return out
}

func perWindow(reps []rep, f func(window) float64) []float64 {
	var out []float64
	for _, r := range reps {
		for _, w := range r.windows {
			out = append(out, f(w))
		}
	}
	return out
}

// endToEnd is what a user of the simulator sees: how fast it runs, what it
// costs to set up and hold, and what the modeled controller spends.
func endToEnd(reps []rep, setups []float64) []series {
	sim := reps[0].sim
	return []series{
		{"sim_req_per_s", "req/s", perWindow(reps, func(w window) float64 {
			return ratio(float64(w.requests), w.d.Seconds())
		})},
		{"host_ns_per_path", "ns", perWindow(reps, func(w window) float64 {
			return ratio(float64(w.d.Nanoseconds()), float64(w.paths))
		})},
		{"wall_s", "s", perRep(reps, func(r rep) float64 { return r.wall.Seconds() })},
		{"setup_s", "s", setups},
		{"heap_mb", "MB", perRep(reps, func(r rep) float64 { return r.heapMB })},
		{"sim_cycles", "cycles", one(float64(sim["sim_cycles"]))},
		{"dram_blocks_per_req", "blocks/req",
			one(ratio(float64(sim["dram_reads"]+sim["dram_writes"]), float64(sim["sim_requests"])))},
	}
}

// perLayer is the traced run's breakdown: harness spans around the trace
// and sim layers, sweep accounting, profile attribution to every layer,
// and the simulated per-component statistics.
func perLayer(w workload, untraced, traced []rep, sp *spans, prof profile) []series {
	walls := func(reps []rep) []float64 {
		return perRep(reps, func(r rep) float64 { return r.wall.Seconds() })
	}
	slices.Sort(sp.steps)
	u := untraced[0]
	out := []series{
		{"trace.next_ns", "ns", one(ratio(float64(sp.next.Nanoseconds()), float64(len(sp.steps))))},
		{"sim.step_ns_p50", "ns", one(quantile(sp.steps, 0.50))},
		{"sim.step_ns_p99", "ns", one(quantile(sp.steps, 0.99))},
		{"sim.step_count", "count", one(float64(len(sp.steps)))},
		{"sim.step_path_ns_per_path", "ns", one(ratio(float64(sp.pathStep.Nanoseconds()), float64(sp.paths)))},
		{"sim.result_ms", "ms", one(ratio(float64(sp.result)/float64(time.Millisecond), float64(sp.results)))},
		{"trace_overhead_frac", "fraction", one(median(walls(traced))/median(walls(untraced)) - 1)},
		{"runner.parallel_eff", "fraction", perRep(untraced, func(r rep) float64 {
			return ratio(r.cpu.Seconds(), r.wall.Seconds()*float64(w.jobs()))
		})},
		{"experiments.cells", "count", one(float64(u.cells))},
		{"experiments.cache_hits", "count", one(float64(u.hits))},
	}
	for _, l := range layers {
		out = append(out, series{"host_s." + l, "s", one(prof.share(l) * prof.wall.Seconds())})
	}
	out = append(out, series{"profile_coverage", "fraction", one(prof.coverage())})
	return append(out, simulated(u.sim, u.missLatency, w.base().DRAM.Channels)...)
}

// simulated derives the per-component statistics of the modeled system
// from its counters; they repeat exactly for a seed.
func simulated(c counters, missLatency []bucket, channels int) []series {
	f := func(name string) float64 { return float64(c[name]) }
	perReq := func(v float64) []float64 { return one(ratio(v, f("sim_requests"))) }
	perKReq := func(v float64) []float64 { return one(ratio(1000*v, f("sim_requests"))) }
	share := func(part, whole float64) []float64 { return one(ratio(part, whole)) }
	return []series{
		{"llc.miss_rate", "fraction", share(f("llc_misses"), f("llc_hits")+f("llc_misses"))},
		{"core.paths_per_kreq.ptd", "paths/kreq", perKReq(f("oram_paths_ptd"))},
		{"core.paths_per_kreq.ptp", "paths/kreq", perKReq(f("oram_paths_ptp1") + f("oram_paths_ptp2"))},
		{"core.paths_per_kreq.ptm", "paths/kreq", perKReq(f("oram_paths_ptm"))},
		{"core.paths_per_kreq.dwb", "paths/kreq", perKReq(f("oram_paths_dwb"))},
		{"core.paths_per_kreq.evict", "paths/kreq", perKReq(f("oram_paths_evict"))},
		{"core.blocks_per_path", "blocks/path",
			share(f("oram_blocks_read")+f("oram_blocks_written"), f("oram_paths_issued"))},
		{"core.onchip_hits_per_kreq", "hits/kreq",
			perKReq(f("oram_stash_hits") + f("oram_sstash_hits") + f("oram_top_hits"))},
		{"posmap.plb_hit_rate", "fraction", share(f("oram_plb_hits"), f("oram_plb_hits")+f("oram_plb_misses"))},
		{"cache.dwb_useful_ratio", "fraction", share(f("oram_dwb_completed"), f("oram_dwb_converted"))},
		{"core.phase_cyc_per_req.read", "cycles", perReq(f("oram_phase_read_cycles"))},
		{"core.phase_cyc_per_req.writeback", "cycles", perReq(f("oram_phase_writeback_cycles"))},
		{"core.phase_cyc_per_req.remap", "cycles", perReq(f("oram_phase_remap_cycles"))},
		{"core.phase_cyc_per_req.evict", "cycles", perReq(f("oram_phase_evict_cycles"))},
		{"dram.row_hit_rate", "fraction", share(f("dram_row_hits"), f("dram_row_hits")+f("dram_row_misses"))},
		{"dram.busy_frac", "fraction", share(f("dram_busy_cycles"), f("sim_cycles")*float64(channels))},
		{"sim.miss_latency_p50_cyc", "cycles", one(histQuantile(missLatency, 0.50))},
		{"sim.miss_latency_p99_cyc", "cycles", one(histQuantile(missLatency, 0.99))},
	}
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histQuantile returns the upper bound of the log2 bucket that holds the
// q-quantile sample.
func histQuantile(bs []bucket, q float64) float64 {
	var total uint64
	for _, b := range bs {
		total += b.n
	}
	var seen uint64
	for _, b := range bs {
		seen += b.n
		if float64(seen) >= q*float64(total) {
			return float64(b.hi)
		}
	}
	return 0
}

// quantile returns the q-quantile of sorted values, interpolating linearly
// between order statistics; 0 for no values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[i]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	return quantile(s, 0.25), quantile(s, 0.5), quantile(s, 0.75)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
