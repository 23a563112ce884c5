package metrics

import (
	"fmt"
	"sort"
)

// Kind classifies a registered metric.
type Kind string

// The metric kinds a Registry distinguishes; Desc.Kind is one of these.
const (
	// KindCounter is a monotonically increasing uint64.
	KindCounter Kind = "counter"
	// KindGauge is a point-in-time sampled value.
	KindGauge Kind = "gauge"
	// KindHistogram is a power-of-two-bucket Hist.
	KindHistogram Kind = "histogram"
	// KindLinearHistogram is a per-index LinearHist.
	KindLinearHistogram Kind = "linear_histogram"
)

// Desc describes one registered metric: its unique name, unit, kind and a
// one-line help string. Descs are the registry's self-description — `make
// docscheck` validates docs/METRICS.md against them.
type Desc struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
	Help string `json:"help"`
	Kind Kind   `json:"kind"`
}

// entry binds a Desc to exactly one value source.
type entry struct {
	desc        Desc
	counter     *uint64
	counterFunc func() uint64
	gaugeFunc   func() float64
	hist        *Hist
	linear      *LinearHist
}

// Registry binds metric names to the instruments that hold their values.
// It is consulted only at registration and snapshot time — instruments are
// updated through direct field access, so the registry adds no work to the
// simulator's access path. A Registry is not synchronized; like the System
// that owns it, it is single-goroutine (see internal/sim).
type Registry struct {
	entries map[string]*entry
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]*entry)}
}

func (r *Registry) add(d Desc, e *entry) {
	if d.Name == "" {
		panic("metrics: empty metric name")
	}
	for _, c := range d.Name {
		if !(c >= 'a' && c <= 'z' || c >= '0' && c <= '9' || c == '_') {
			panic(fmt.Sprintf("metrics: invalid metric name %q (want [a-z0-9_]+)", d.Name))
		}
	}
	if _, dup := r.entries[d.Name]; dup {
		panic(fmt.Sprintf("metrics: duplicate metric %q", d.Name))
	}
	e.desc = d
	r.entries[d.Name] = e
}

// Counter registers v as a named monotonic counter. The caller keeps
// updating *v directly (v must outlive the registry).
func (r *Registry) Counter(name, unit, help string, v *uint64) {
	r.add(Desc{Name: name, Unit: unit, Help: help, Kind: KindCounter},
		&entry{counter: v})
}

// CounterFunc registers a counter whose value is produced by f at snapshot
// time — for counters owned by a subsystem that exposes them only through an
// accessor (e.g. the DRAM model's Stats()).
func (r *Registry) CounterFunc(name, unit, help string, f func() uint64) {
	r.add(Desc{Name: name, Unit: unit, Help: help, Kind: KindCounter},
		&entry{counterFunc: f})
}

// GaugeFunc registers a gauge sampled by f at snapshot time (occupancies,
// queue lengths). f runs only when a snapshot is taken, never per access.
func (r *Registry) GaugeFunc(name, unit, help string, f func() float64) {
	r.add(Desc{Name: name, Unit: unit, Help: help, Kind: KindGauge},
		&entry{gaugeFunc: f})
}

// Histogram registers h as a named power-of-two-bucket histogram. The
// caller keeps calling h.Observe directly.
func (r *Registry) Histogram(name, unit, help string, h *Hist) {
	r.add(Desc{Name: name, Unit: unit, Help: help, Kind: KindHistogram},
		&entry{hist: h})
}

// LinearHistogram registers h as a named per-index histogram.
func (r *Registry) LinearHistogram(name, unit, help string, h *LinearHist) {
	r.add(Desc{Name: name, Unit: unit, Help: help, Kind: KindLinearHistogram},
		&entry{linear: h})
}

// Descs returns every registered metric's description, sorted by name —
// the registry's self-description, used by `make docscheck` to validate
// docs/METRICS.md and by the JSONL schema tests.
func (r *Registry) Descs() []Desc {
	out := make([]Desc, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e.desc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Snapshot is one deterministic dump of every registered metric, grouped by
// kind. It marshals to canonical JSON (map keys sort), so equal registry
// states produce byte-identical snapshots.
type Snapshot struct {
	Counters   map[string]uint64         `json:"counters,omitempty"`
	Gauges     map[string]float64        `json:"gauges,omitempty"`
	Histograms map[string]HistSnapshot   `json:"histograms,omitempty"`
	Linear     map[string]LinearSnapshot `json:"linear_histograms,omitempty"`
}

// Snapshot reads every registered instrument and returns the dump. It
// allocates; callers take snapshots at run boundaries, not per access.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{}
	for name, e := range r.entries {
		switch {
		case e.counter != nil:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[name] = *e.counter
		case e.counterFunc != nil:
			if s.Counters == nil {
				s.Counters = make(map[string]uint64)
			}
			s.Counters[name] = e.counterFunc()
		case e.gaugeFunc != nil:
			if s.Gauges == nil {
				s.Gauges = make(map[string]float64)
			}
			s.Gauges[name] = e.gaugeFunc()
		case e.hist != nil:
			if s.Histograms == nil {
				s.Histograms = make(map[string]HistSnapshot)
			}
			s.Histograms[name] = e.hist.Snapshot()
		case e.linear != nil:
			if s.Linear == nil {
				s.Linear = make(map[string]LinearSnapshot)
			}
			s.Linear[name] = e.linear.Snapshot()
		}
	}
	return s
}
