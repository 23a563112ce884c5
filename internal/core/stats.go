package core

import (
	"iroram/internal/block"
	"iroram/internal/metrics"
	"iroram/internal/stats"
)

// Stats aggregates everything the paper's figures need from the controller.
type Stats struct {
	// Paths counts path accesses by type (Fig 2, Fig 15).
	Paths stats.PathCounters

	// StashHits counts data requests served by the F-Stash.
	StashHits uint64
	// SStashHits counts data requests served by the IR-Stash address index
	// before any PosMap work (the accesses whose PTp paths IR-Stash saves).
	SStashHits uint64
	// TopHits counts data requests served on-chip from the tree top after
	// PosMap resolution (the baseline dedicated-cache hit of Fig 6).
	TopHits uint64
	// HitLevels histograms the tree level at which requested data blocks
	// were found (tree-top and memory levels; Fig 6).
	HitLevels *metrics.LinearHist

	// PLBHits / PLBMisses count PosMap entry lookups.
	PLBHits, PLBMisses uint64

	// BgEvictions counts background-eviction path accesses; BgEvictionCycles
	// accumulates the time they occupied (Fig 12's shaded share).
	BgEvictions      uint64
	BgEvictionCycles uint64

	// DWBCompleted counts LLC lines fully written back early (Stage
	// reached 0); DWBAborted counts abandoned candidates. The dummy slots
	// IR-DWB converted are Paths.Paths[PathDWB], and the pure PT_m paths
	// Paths.Paths[PathDummy].
	DWBCompleted uint64
	DWBAborted   uint64
	// ProactiveRemaps counts LLC LRU entries whose PosMap state was
	// prefetched by converted dummies (the Section IV-D future-work
	// extension), making their later LLC-D eviction free.
	ProactiveRemaps uint64

	// Migration records which levels write phases placed blocks at,
	// separated by block origin (Fig 5): fetched this access vs
	// pre-existing in the stash.
	MigrationFetched     *metrics.LinearHist
	MigrationPreexisting *metrics.LinearHist

	// Issue-gap audit (the obliviousness regression check): with timing
	// protection on, the controller may never be observably idle — every
	// issue must start no later than max(previous issue + T, previous path
	// completion). NonUniformIssues counts violations; PathsIssued the
	// total number of path issues.
	PathsIssued      uint64
	NonUniformIssues uint64

	// ServedRequests counts completed LLC-side requests (reads + writes).
	ServedRequests uint64

	// ContextSwitches counts Section IV-C stash-flush/top-spill events.
	ContextSwitches uint64

	// PathLatency histograms the service latency (issue to data-available,
	// in CPU cycles) of every path access, keyed by path type — the
	// per-access-class latency distributions the observability layer
	// exports. Observations are allocation-free (plain arrays).
	PathLatency [block.NumPathTypes]metrics.Hist
	// QueueDepth histograms the posted-write queue depth at each path
	// issue — the controller-side queue pressure signal.
	QueueDepth metrics.Hist

	// Per-phase cycle accounting across all path accesses: PhaseReadCycles
	// is DRAM read-phase service time (issue to last read block on the
	// bus), PhaseWriteBackCycles is the posted write phase's bus occupancy
	// beyond the read phase, and PhaseRemapCycles is the on-chip remap
	// latency (OnChipLatency per remap). The eviction phase is
	// BgEvictionCycles above. Remaps counts position-map remap operations.
	PhaseReadCycles      uint64
	PhaseWriteBackCycles uint64
	PhaseRemapCycles     uint64
	Remaps               uint64

	// EpochInterval, when non-zero, appends one Epoch snapshot to Epochs
	// every EpochInterval issued paths — the time-series view of a run.
	// Off by default: enabling it trades the zero-allocation guarantee of
	// the access path for periodic (amortized) snapshot appends.
	EpochInterval uint64
	Epochs        []Epoch
}

// Epoch is one periodic time-series sample of the controller's progress,
// captured every Stats.EpochInterval issued paths (see sim.System.
// SetEpochInterval). All values are cumulative since the start of the run.
type Epoch struct {
	// Paths is the total number of issued path accesses at capture time.
	Paths uint64 `json:"paths"`
	// Cycle is the simulated CPU cycle of the issue that closed the epoch.
	Cycle uint64 `json:"cycle"`
	// ByType is the cumulative per-type path-access count, indexed by
	// block.PathType.
	ByType [block.NumPathTypes]uint64 `json:"by_type"`
	// Served is the cumulative count of completed LLC-side requests.
	Served uint64 `json:"served"`
	// StashLen is the F-Stash occupancy at capture time (a point sample,
	// not cumulative).
	StashLen int `json:"stash_len"`
}

func newStats(levels int) *Stats {
	return &Stats{
		HitLevels:            metrics.NewLinearHist(levels),
		MigrationFetched:     metrics.NewLinearHist(levels),
		MigrationPreexisting: metrics.NewLinearHist(levels),
	}
}

// PosPathFraction returns the PTp share of all path accesses.
func (s *Stats) PosPathFraction() float64 {
	return s.Paths.Fraction(block.PathPos1) + s.Paths.Fraction(block.PathPos2)
}

// PosMapPaths returns the PTp path accesses (Pos1 + Pos2), Fig 14's metric.
func (s *Stats) PosMapPaths() uint64 {
	return s.Paths.Paths[block.PathPos1] + s.Paths.Paths[block.PathPos2]
}
