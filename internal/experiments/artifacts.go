package experiments

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"iroram/internal/core"
	"iroram/internal/metrics"
	"iroram/internal/sim"
)

// SchemaVersion is the JSONL artifact schema version, bumped whenever a
// Record field or a registered metric name changes meaning (additive
// changes — new metric names — do not bump it; see docs/METRICS.md for the
// compatibility policy). Version 2: the `metrics` field became optional —
// probe drivers (the co-run interference probe, the Z-profile search) emit
// partial records without a registry snapshot, where version 1 guaranteed
// every record carried one.
const SchemaVersion = 2

// Record is one JSONL artifact line: the full metric dump of one simulated
// (figure, scheme, benchmark) cell. Field names and registered metric names
// are a stable schema (docs/METRICS.md); readers must tolerate unknown
// fields so additive changes stay compatible.
type Record struct {
	// Schema is SchemaVersion at emission time.
	Schema int `json:"schema"`
	// Figure names the experiment driver that ran the cell ("fig10",
	// "table2", "irsim", ...).
	Figure string `json:"figure"`
	// Scheme and Benchmark identify the cell within the figure's grid.
	Scheme    string `json:"scheme"`
	Benchmark string `json:"benchmark"`
	// Label distinguishes cells beyond (scheme, benchmark) in sweeps that
	// vary another axis: the Fig 12 profile name, Fig 16's geometry/seed,
	// the ablation variant. Empty for plain grid cells.
	Label string `json:"label,omitempty"`

	// Seed is the cell's simulation seed; Requests the trace records
	// actually consumed.
	Seed     uint64 `json:"seed"`
	Requests uint64 `json:"requests"`

	// Headline run outcomes, duplicated out of Metrics for cheap scanning.
	Cycles       uint64  `json:"cycles"`
	Instructions uint64  `json:"instructions"`
	IPC          float64 `json:"ipc"`
	ReadMPKI     float64 `json:"read_mpki"`
	WriteMPKI    float64 `json:"write_mpki"`

	// Value carries a probe driver's headline scalar when the cell's
	// outcome is not a full run summary: the co-run interference factor,
	// the Z-search candidate's background-eviction count. Zero (and
	// omitted) for full records.
	Value float64 `json:"value,omitempty"`

	// Metrics is the cell's full registry snapshot (every oram_*, sim_*,
	// llc_*, dram_*, flight_* instrument of docs/METRICS.md). Absent on
	// partial records from probe drivers (schema >= 2).
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Epochs is the periodic time series, present only when the run was
	// started with a non-zero epoch interval.
	Epochs []core.Epoch `json:"epochs,omitempty"`
}

// NewRecord assembles a Record from one run result. label may be empty.
func NewRecord(figure, scheme, bench, label string, seed uint64, r sim.Result) Record {
	return Record{
		Schema:       SchemaVersion,
		Figure:       figure,
		Scheme:       scheme,
		Benchmark:    bench,
		Label:        label,
		Seed:         seed,
		Requests:     r.Requests,
		Cycles:       r.Cycles,
		Instructions: r.Instructions,
		IPC:          r.IPC(),
		ReadMPKI:     r.ReadMPKI(),
		WriteMPKI:    r.WriteMPKI(),
		Metrics:      r.Metrics,
		Epochs:       r.ORAM.Epochs,
	}
}

// NewProbeRecord assembles a partial Record for a probe cell — one whose
// driver reduces the run to a single scalar instead of keeping the full
// sim.Result (the co-run interference factor, a Z-search candidate's
// eviction count). Partial records carry identity, seed, request and
// cycle counts plus the probe's headline value, but no metrics snapshot.
func NewProbeRecord(figure, scheme, bench, label string, seed, requests,
	cycles uint64, value float64) Record {
	return Record{
		Schema:    SchemaVersion,
		Figure:    figure,
		Scheme:    scheme,
		Benchmark: bench,
		Label:     label,
		Seed:      seed,
		Requests:  requests,
		Cycles:    cycles,
		Value:     value,
	}
}

// ArtifactLog accumulates Records during a sweep and writes them out as
// JSONL. It is deliberately unsynchronized: the drivers append only after
// runner.Map has returned, in cell-index order on the calling goroutine,
// which is what makes the emitted bytes identical for every worker count
// (the same determinism contract as the printed tables).
type ArtifactLog struct {
	records []Record
}

// Add appends one record.
func (l *ArtifactLog) Add(rec Record) { l.records = append(l.records, rec) }

// Len returns the number of accumulated records.
func (l *ArtifactLog) Len() int { return len(l.records) }

// Records returns the accumulated records in emission order. The slice is
// shared; callers must not mutate it.
func (l *ArtifactLog) Records() []Record { return l.records }

// Encode writes every record to w as JSONL (one canonical JSON object per
// line, in emission order). encoding/json sorts map keys, so the bytes are
// a pure function of the records.
func (l *ArtifactLog) Encode(w io.Writer) error {
	enc := json.NewEncoder(w)
	for i := range l.records {
		if err := enc.Encode(&l.records[i]); err != nil {
			return fmt.Errorf("experiments: encoding artifact record %d: %w", i, err)
		}
	}
	return nil
}

// WriteDir writes the log under dir as one <figure>.jsonl sidecar per
// distinct Figure value, records in emission order within each file. The
// directory is created if missing; existing sidecar files are replaced.
func (l *ArtifactLog) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: artifact dir: %w", err)
	}
	// Group by figure, preserving first-appearance order.
	order := []string{}
	byFig := map[string][]Record{}
	for _, rec := range l.records {
		if _, ok := byFig[rec.Figure]; !ok {
			order = append(order, rec.Figure)
		}
		byFig[rec.Figure] = append(byFig[rec.Figure], rec)
	}
	for _, fig := range order {
		path := filepath.Join(dir, fig+".jsonl")
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("experiments: artifact file: %w", err)
		}
		sub := ArtifactLog{records: byFig[fig]}
		if err := sub.Encode(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("experiments: artifact file: %w", err)
		}
	}
	return nil
}

// emit appends one cell record to the options' artifact log and, when the
// cell was traced, its flight trace to the flight log. Callers must invoke
// it only after the cell batch has completed, in cell-index order, from
// the sweep's calling goroutine — never from worker goroutines — so
// artifact and trace bytes stay independent of Jobs.
func (o Options) emit(v variant, bench string, r sim.Result) {
	scheme := v.cfg.Scheme.Name
	if o.Artifacts != nil {
		o.Artifacts.Add(NewRecord(o.Figure, scheme, bench, v.label, v.cfg.Seed, r))
	}
	if o.Flight != nil && r.Flight != nil {
		o.Flight.Add(FlightCell{Figure: o.Figure, Scheme: scheme,
			Benchmark: bench, Label: v.label, Trace: r.Flight})
	}
}

// emitProbe appends one partial record for a probe cell (see
// NewProbeRecord). Same ordering contract as emit.
func (o Options) emitProbe(scheme, bench, label string, requests, cycles uint64, value float64) {
	if o.Artifacts == nil {
		return
	}
	o.Artifacts.Add(NewProbeRecord(o.Figure, scheme, bench, label,
		o.Seed, requests, cycles, value))
}
