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

import (
	"fmt"
	"math/bits"
)

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

// Count returns the number of samples observed.
func (h *Hist) Count() uint64 { return h.count }

// Sum returns the sum of all observed samples.
func (h *Hist) Sum() uint64 { return h.sum }

// Min returns the smallest observed sample, or 0 before any observation.
func (h *Hist) Min() uint64 { return h.min }

// Max returns the largest observed sample, or 0 before any observation.
func (h *Hist) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of observed samples, or 0 when empty.
func (h *Hist) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// BucketIndex returns the bucket a value falls into: its bit length.
func BucketIndex(v uint64) int { return bits.Len64(v) }

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
// level). Add is allocation-free. The exported Counts slice is part of the
// legacy stats API (internal/stats aliases LevelHist to this type).
type LinearHist struct {
	Counts []uint64
}

// NewLinearHist returns a histogram with n buckets.
func NewLinearHist(n int) *LinearHist {
	return &LinearHist{Counts: make([]uint64, n)}
}

// Add increments bucket i.
func (h *LinearHist) Add(i int) { h.Counts[i]++ }

// AddN adds n to bucket i — the bulk form for callers that tally a batch
// locally and flush once.
func (h *LinearHist) AddN(i int, n uint64) { h.Counts[i] += n }

// Total returns the histogram mass.
func (h *LinearHist) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

// FractionUpTo returns the share of mass at buckets [0, l].
func (h *LinearHist) FractionUpTo(l int) float64 {
	total := h.Total()
	if total == 0 {
		return 0
	}
	var n uint64
	for i := 0; i <= l && i < len(h.Counts); i++ {
		n += h.Counts[i]
	}
	return float64(n) / float64(total)
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

// String renders the summary fields compactly (buckets elided).
func (s HistSnapshot) String() string {
	return fmt.Sprintf("hist{n=%d sum=%d min=%d max=%d}", s.Count, s.Sum, s.Min, s.Max)
}
