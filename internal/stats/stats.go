// Package stats collects and reports simulator statistics: path-access
// counters by type (Fig 2, 15) and the aligned text tables the experiment
// harness prints. Per-level histograms (Fig 6) are internal/metrics'
// LinearHist.
//
// Every counter here is registered into a metrics.Registry by the
// component that owns it (see core.Stats and internal/sim), which is what
// makes the JSONL metric dumps and the docs/METRICS.md self-description
// possible. The counters inherit the metrics package's contracts:
// allocation-free updates on the access path, and fully deterministic
// values for a given seed.
package stats

import (
	"fmt"
	"math"
	"strings"

	"iroram/internal/block"
)

// PathCounters tallies path accesses by type, plus the DRAM block traffic
// they generate.
type PathCounters struct {
	Paths      [block.NumPathTypes]uint64
	BlocksRead uint64
	BlocksWrit uint64
}

// Add records one path access of type t that moved r reads and w writes.
func (c *PathCounters) Add(t block.PathType, r, w int) {
	c.Paths[t]++
	c.BlocksRead += uint64(r)
	c.BlocksWrit += uint64(w)
}

// Total returns the total number of path accesses.
func (c *PathCounters) Total() uint64 {
	var n uint64
	for _, v := range c.Paths {
		n += v
	}
	return n
}

// Fraction returns the share of type t among all path accesses, or 0 when
// nothing was recorded.
func (c *PathCounters) Fraction(t block.PathType) float64 {
	total := c.Total()
	if total == 0 {
		return 0
	}
	return float64(c.Paths[t]) / float64(total)
}

// Series is a labelled sequence of float64 values, one entry per benchmark
// or configuration; the building block of every figure table.
type Series struct {
	Name   string
	Values []float64
}

// Table is a labelled collection of Series sharing one set of row labels.
type Table struct {
	Title  string
	Rows   []string
	Series []Series
}

// NewTable returns an empty table with the given row labels.
func NewTable(title string, rows ...string) *Table {
	return &Table{Title: title, Rows: rows}
}

// AddSeries appends a column. It panics if the length does not match the
// row labels, which would silently misalign a figure.
func (t *Table) AddSeries(name string, values []float64) {
	if len(values) != len(t.Rows) {
		panic(fmt.Sprintf("stats: series %q has %d values for %d rows",
			name, len(values), len(t.Rows)))
	}
	t.Series = append(t.Series, Series{Name: name, Values: values})
}

// Get returns the value at (row, series name); ok is false if absent.
func (t *Table) Get(row, series string) (float64, bool) {
	ri := -1
	for i, r := range t.Rows {
		if r == row {
			ri = i
			break
		}
	}
	if ri < 0 {
		return 0, false
	}
	for _, s := range t.Series {
		if s.Name == series {
			return s.Values[ri], true
		}
	}
	return 0, false
}

// String renders the table as aligned text, the format the experiment
// binaries print and EXPERIMENTS.md embeds.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", t.Title)
	widths := make([]int, len(t.Series)+1)
	widths[0] = len("benchmark")
	for _, r := range t.Rows {
		if len(r) > widths[0] {
			widths[0] = len(r)
		}
	}
	for i, s := range t.Series {
		widths[i+1] = len(s.Name)
		for _, v := range s.Values {
			if n := len(formatCell(v)); n > widths[i+1] {
				widths[i+1] = n
			}
		}
	}
	fmt.Fprintf(&b, "%-*s", widths[0], "benchmark")
	for i, s := range t.Series {
		fmt.Fprintf(&b, "  %*s", widths[i+1], s.Name)
	}
	b.WriteByte('\n')
	for ri, r := range t.Rows {
		fmt.Fprintf(&b, "%-*s", widths[0], r)
		for si, s := range t.Series {
			fmt.Fprintf(&b, "  %*s", widths[si+1], formatCell(s.Values[ri]))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func formatCell(v float64) string {
	switch {
	case v == 0:
		return "0"
	case v >= 1000:
		return fmt.Sprintf("%.0f", v)
	case v >= 10:
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// GeoMean returns the geometric mean of strictly positive values; zero or
// negative entries are skipped (they would poison the product).
func GeoMean(values []float64) float64 {
	prod, n := 1.0, 0
	for _, v := range values {
		if v > 0 {
			prod *= v
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Pow(prod, 1/float64(n))
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// StdDev returns the population standard deviation.
func StdDev(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	m := Mean(values)
	sum := 0.0
	for _, v := range values {
		d := v - m
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(values)))
}
