package experiments

import (
	"fmt"
	"os"
	"path/filepath"

	"iroram/internal/flight"
)

// FlightCell pairs one simulated cell's identity with its flight-recorder
// trace snapshot. Cells accumulate in a FlightLog exactly like artifact
// Records accumulate in an ArtifactLog: appended post-batch in cell-index
// order on the calling goroutine, so trace files are byte-identical for
// every Jobs value.
type FlightCell struct {
	Figure, Scheme, Benchmark, Label string
	Trace                            *flight.Trace
}

// processName is the Perfetto process title of the cell.
func (c FlightCell) processName() string {
	name := c.Scheme + "/" + c.Benchmark
	if c.Label != "" {
		name += "/" + c.Label
	}
	return name
}

// FlightLog accumulates flight traces during a sweep. Like ArtifactLog it
// is deliberately unsynchronized — drivers append only after a batch has
// completed, from the sweep's calling goroutine.
type FlightLog struct {
	cells []FlightCell
}

// Add appends one traced cell.
func (l *FlightLog) Add(c FlightCell) { l.cells = append(l.cells, c) }

// Len returns the number of accumulated traces.
func (l *FlightLog) Len() int { return len(l.cells) }

// Cells returns the accumulated traces in emission order. The slice is
// shared; callers must not mutate it.
func (l *FlightLog) Cells() []FlightCell { return l.cells }

// WriteDir writes the log under dir as one <figure>.trace.json Chrome
// trace-event file per distinct Figure value: every traced cell of the
// figure becomes one Perfetto process, in emission order. The directory
// is created if missing; existing trace files are replaced.
func (l *FlightLog) WriteDir(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("experiments: flight dir: %w", err)
	}
	order := []string{}
	byFig := map[string][]flight.Process{}
	for _, c := range l.cells {
		if _, ok := byFig[c.Figure]; !ok {
			order = append(order, c.Figure)
		}
		byFig[c.Figure] = append(byFig[c.Figure], flight.Process{
			Name: c.processName(), Trace: c.Trace})
	}
	for _, fig := range order {
		path := filepath.Join(dir, fig+".trace.json")
		if err := flight.WriteFile(path, byFig[fig]); err != nil {
			return fmt.Errorf("experiments: flight trace %s: %w", path, err)
		}
	}
	return nil
}
