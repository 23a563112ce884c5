package core

import (
	"iroram/internal/block"
	"iroram/internal/metrics"
)

// RegisterMetrics binds every controller statistic into r under the
// "oram_" namespace. Registration happens once at System construction; the
// hot path keeps updating the Stats fields directly, so this adds no work
// (and no interface dispatch) to path accesses. The registered name set is
// scheme-independent — counters a scheme never touches simply stay zero —
// which keeps the JSONL schema identical across every cell of a sweep.
func (c *Controller) RegisterMetrics(r *metrics.Registry) {
	st := c.st

	for t := 0; t < block.NumPathTypes; t++ {
		slug := block.PathType(t).Slug()
		r.Counter("oram_paths_"+slug, "paths",
			"path accesses of type "+block.PathType(t).String(), &st.Paths.Paths[t])
		r.Histogram("oram_path_latency_"+slug, "cycles",
			"service latency of "+block.PathType(t).String()+" path accesses",
			&st.PathLatency[t])
	}
	r.Counter("oram_blocks_read", "blocks",
		"DRAM blocks read by path accesses", &st.Paths.BlocksRead)
	r.Counter("oram_blocks_written", "blocks",
		"DRAM blocks written by path accesses", &st.Paths.BlocksWrit)

	r.Counter("oram_stash_hits", "requests",
		"data requests served by the F-Stash", &st.StashHits)
	r.Counter("oram_sstash_hits", "requests",
		"data requests served by the IR-Stash address index", &st.SStashHits)
	r.Counter("oram_top_hits", "requests",
		"data requests served on-chip from the tree top", &st.TopHits)
	r.Counter("oram_served_requests", "requests",
		"completed LLC-side requests", &st.ServedRequests)

	r.CounterFunc("oram_posmap_paths", "paths",
		"PTp path accesses (Pos1 + Pos2)", st.PosMapPaths)
	r.Counter("oram_plb_hits", "lookups", "PLB lookup hits", &st.PLBHits)
	r.Counter("oram_plb_misses", "lookups", "PLB lookup misses", &st.PLBMisses)

	r.Counter("oram_bg_evictions", "paths",
		"background-eviction path accesses", &st.BgEvictions)
	r.Counter("oram_phase_evict_cycles", "cycles",
		"cycles spent in background-eviction paths (the evict phase)",
		&st.BgEvictionCycles)

	r.CounterFunc("oram_dummy_paths", "paths", "pure PTm dummy paths",
		func() uint64 { return st.Paths.Paths[block.PathDummy] })
	r.CounterFunc("oram_dwb_converted", "paths",
		"dummy slots converted to IR-DWB write-back steps",
		func() uint64 { return st.Paths.Paths[block.PathDWB] })
	r.Counter("oram_dwb_completed", "lines",
		"LLC lines fully written back early by IR-DWB", &st.DWBCompleted)
	r.Counter("oram_dwb_aborted", "candidates",
		"abandoned IR-DWB candidates", &st.DWBAborted)
	r.Counter("oram_proactive_remaps", "lines",
		"LLC LRU entries whose PosMap state was prefetched", &st.ProactiveRemaps)

	r.Counter("oram_paths_issued", "paths",
		"path issues recorded by the pacing issuer", &st.PathsIssued)
	r.Counter("oram_nonuniform_issues", "paths",
		"issue-gap violations (obliviousness audit)", &st.NonUniformIssues)
	r.Counter("oram_context_switches", "events",
		"stash-flush/top-spill context-switch events", &st.ContextSwitches)

	r.Counter("oram_phase_read_cycles", "cycles",
		"DRAM read-phase service cycles across all path accesses",
		&st.PhaseReadCycles)
	r.Counter("oram_phase_writeback_cycles", "cycles",
		"posted write-phase bus-occupancy cycles beyond the read phase",
		&st.PhaseWriteBackCycles)
	r.Counter("oram_phase_remap_cycles", "cycles",
		"on-chip remap cycles (OnChipLatency per remap)", &st.PhaseRemapCycles)
	r.Counter("oram_remaps", "remaps",
		"position-map remap operations", &st.Remaps)

	r.Histogram("oram_write_queue_depth", "entries",
		"posted-write queue depth at each path issue", &st.QueueDepth)

	r.LinearHistogram("oram_hit_level", "levels",
		"tree level at which requested data blocks were found", st.HitLevels)
	r.LinearHistogram("oram_migration_fetched_level", "levels",
		"write-phase placement level of blocks fetched by the same access",
		st.MigrationFetched)
	r.LinearHistogram("oram_migration_preexisting_level", "levels",
		"write-phase placement level of blocks pre-existing in the stash",
		st.MigrationPreexisting)

	r.GaugeFunc("oram_stash_occupancy", "blocks",
		"current F-Stash occupancy", func() float64 { return float64(c.fstash.Len()) })
}

// RegisterMetrics binds the issuer's instruments into r. Like the
// controller's registration it runs once at construction; the write-queue
// gauge samples only when a snapshot is taken.
func (is *Issuer) RegisterMetrics(r *metrics.Registry) {
	r.GaugeFunc("oram_write_queue_len", "entries",
		"posted writes currently queued", func() float64 { return float64(len(is.writeQ)) })
}

// remap wraps the position map's remap operation with phase accounting:
// every remap is an on-chip step charged OnChipLatency.
func (c *Controller) remap(a block.ID) block.Leaf {
	c.st.Remaps++
	c.st.PhaseRemapCycles += c.o.OnChipLatency
	return c.pm.Remap(a)
}
