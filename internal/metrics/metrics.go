// Package metrics is the simulator's observability primitive layer: named
// uint64 counters, sampled gauges, fixed-bucket power-of-two latency
// histograms, and linear (per-level) histograms, bound into a Registry that
// can describe and snapshot itself for machine-readable run artifacts
// (docs/METRICS.md is the schema reference, validated by `make docscheck`).
//
// # Zero-allocation contract
//
// The instrument types (Hist, LinearHist, plain uint64 counters) are updated
// on the simulator's access path, which must not allocate (see
// TestPathAccessZeroAllocs and TestHistObserveZeroAllocs). Hist.Observe and
// LinearHist.Add are plain array writes with no interface dispatch, no
// atomics and no allocation; instruments are embedded by value in the stats
// structures they measure and updated through direct field access. The
// Registry only binds names to those instruments — registration happens at
// construction time, and the registry is consulted again only when a
// Snapshot is taken (end of run or epoch boundary), never per access.
//
// # Determinism contract
//
// Everything here is deterministic: instruments are plain memory written by
// the single goroutine that owns the enclosing System, Snapshot enumerates
// metrics in sorted-name order, and snapshots marshal to canonical JSON
// (encoding/json sorts map keys), so two runs with the same seed produce
// byte-identical metric dumps regardless of worker count.
package metrics

import "math/bits"

// NumBuckets is the number of power-of-two histogram buckets. Bucket 0
// holds exactly the value 0; bucket k (k >= 1) holds values in
// [2^(k-1), 2^k - 1], i.e. values whose bit length is k.
const NumBuckets = 65

// Hist is a fixed-bucket power-of-two histogram for cycle-valued samples
// (latencies, depths). The zero value is ready to use. Observe is
// allocation-free; see the package comment for the hot-path contract.
type Hist struct {
	counts   [NumBuckets]uint64
	count    uint64
	sum      uint64
	min, max uint64
}

// Observe records one sample.
func (h *Hist) Observe(v uint64) {
	h.counts[bits.Len64(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// BucketBounds returns the inclusive value range [lo, hi] of bucket i.
// Bucket 0 is [0, 0]; bucket k >= 1 is [2^(k-1), 2^k - 1].
func BucketBounds(i int) (lo, hi uint64) {
	if i == 0 {
		return 0, 0
	}
	lo = uint64(1) << uint(i-1)
	if i == 64 {
		return lo, ^uint64(0)
	}
	return lo, uint64(1)<<uint(i) - 1
}

// BucketCount is one non-empty histogram bucket in a snapshot: N samples
// with values in [Lo, Hi].
type BucketCount struct {
	Lo uint64 `json:"lo"`
	Hi uint64 `json:"hi"`
	N  uint64 `json:"n"`
}

// HistSnapshot is the serializable state of a Hist: summary statistics plus
// the non-empty buckets, in ascending value order.
type HistSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	Min     uint64        `json:"min"`
	Max     uint64        `json:"max"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	for i, n := range h.counts {
		if n == 0 {
			continue
		}
		lo, hi := BucketBounds(i)
		s.Buckets = append(s.Buckets, BucketCount{Lo: lo, Hi: hi, N: n})
	}
	return s
}

// LinearHist is a histogram with one bucket per small integer index — the
// simulator uses it for per-tree-level measurements (hit level, placement
// level). Add is allocation-free. Counts is exported: the figure drivers
// read it, and the write phase's migration tally adds to it directly.
type LinearHist struct {
	Counts []uint64
}

// NewLinearHist returns a histogram with n buckets.
func NewLinearHist(n int) *LinearHist {
	return &LinearHist{Counts: make([]uint64, n)}
}

// Add increments bucket i.
func (h *LinearHist) Add(i int) { h.Counts[i]++ }

// Clone returns a copy that later Adds to h leave unchanged.
func (h *LinearHist) Clone() *LinearHist {
	return &LinearHist{Counts: append([]uint64(nil), h.Counts...)}
}

// Total returns the histogram mass.
func (h *LinearHist) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// LinearSnapshot is the serializable state of a LinearHist.
type LinearSnapshot struct {
	Total  uint64   `json:"total"`
	Counts []uint64 `json:"counts"`
}

// Snapshot captures the linear histogram's current state.
func (h *LinearHist) Snapshot() LinearSnapshot {
	return LinearSnapshot{
		Total:  h.Total(),
		Counts: append([]uint64(nil), h.Counts...),
	}
}
