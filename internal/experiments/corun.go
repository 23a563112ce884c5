package experiments

import (
	"fmt"

	"iroram/internal/config"
	"iroram/internal/flight"
	"iroram/internal/stats"
	"iroram/internal/trace"
)

// CoRun measures ORAM-sharing interference, the server scenario that
// motivates the paper (Section I cites Wang et al.'s co-running study and
// the covert-channel risk of per-application T values): two programs share
// one ORAM controller, polluting each other's PLB, stash and tree top.
//
// For each pair the table reports the interference factor
//
//	T(co-run of A+B) / (T(A solo) + T(B solo))
//
// where each member contributes half of opts.Requests: 1.0 means the shared
// controller time-slices perfectly; above 1.0 is destructive interference.
// The comparison is run under Baseline and IR-ORAM — reduced memory
// intensity leaves more slack for the co-runner. Every (scheme, pair) cell
// runs in parallel; the three runs inside a cell (two solos, one co-run)
// stay sequential on that worker.
func CoRun(opts Options) (*stats.Table, error) {
	pairs := [][2]string{{"gcc", "mcf"}, {"mcf", "lbm"}, {"dee", "bla"}}
	rows := make([]string, len(pairs))
	for i, p := range pairs {
		rows[i] = fmt.Sprintf("%s+%s", p[0], p[1])
	}
	t := stats.NewTable("Co-run: ORAM sharing interference factor", rows...)

	schemes := []config.Scheme{config.Baseline(), config.IROramScheme()}
	np := len(pairs)
	flat, err := mapCells(opts, len(schemes)*np, func(i int) (coRunProbe, error) {
		p := pairs[i%np]
		return opts.interference(schemes[i/np], p[0], p[1])
	})
	if err != nil {
		return nil, err
	}
	for si, sch := range schemes {
		vals := make([]float64, np)
		for pi, p := range pairs {
			probe := flat[si*np+pi]
			vals[pi] = probe.factor
			// The probe reduces three runs to one scalar, so the sidecar
			// carries a partial record: the co-run's cycle count plus the
			// interference factor as the headline value. The flight trace,
			// when requested, covers the co-run (not the solos).
			opts.emitProbe(sch.Name, p[0]+"+"+p[1], "",
				probe.requests, probe.cycles, probe.factor)
			if opts.Flight != nil && probe.trace != nil {
				opts.Flight.Add(FlightCell{Figure: opts.Figure, Scheme: sch.Name,
					Benchmark: p[0] + "+" + p[1], Trace: probe.trace})
			}
		}
		t.AddSeries(sch.Name, vals)
	}
	return t, nil
}

// coRunProbe is one (scheme, pair) interference measurement: the factor
// plus the co-run's raw cycle and request counts for the partial record,
// and its flight trace when tracing is on.
type coRunProbe struct {
	factor           float64
	cycles, requests uint64
	trace            *flight.Trace
}

func (o Options) interference(sch config.Scheme, a, b string) (coRunProbe, error) {
	cfg := o.configFor(sch)
	half := o
	half.Requests = o.Requests / 2
	ra, err := half.run(cell{cfg: cfg, bench: a})
	if err != nil {
		return coRunProbe{}, err
	}
	rb, err := half.run(cell{cfg: cfg, bench: b})
	if err != nil {
		return coRunProbe{}, err
	}
	s, err := o.newSystem(cfg)
	if err != nil {
		return coRunProbe{}, err
	}
	ga, err := trace.Named(a, cfg.ORAM.DataBlocks(), cfg.Seed)
	if err != nil {
		return coRunProbe{}, err
	}
	gb, err := trace.Named(b, cfg.ORAM.DataBlocks(), cfg.Seed)
	if err != nil {
		return coRunProbe{}, err
	}
	mixed := s.Run(trace.NewMix(a+"+"+b, ga, gb), 2*half.Requests)
	return coRunProbe{
		factor:   float64(mixed.Cycles) / float64(ra.Cycles+rb.Cycles),
		cycles:   mixed.Cycles,
		requests: mixed.Requests,
		trace:    mixed.Flight,
	}, nil
}

// FutureWork evaluates the Section IV-D extension the paper defers: IR-ORAM
// over an LLC-D baseline with dummy paths converted to proactive PosMap
// prefetches for LLC LRU entries. Speedups are over the plain LLC-D
// baseline, next to the Fig 11 combination for reference.
func FutureWork(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "gmean")
	t := stats.NewTable("Future work (Section IV-D): proactive remapping over LLC-D", rows...)

	grid, err := opts.runBatch(opts.variants(
		config.LLCDScheme(), config.IRStashAllocOnLLCD(), config.IROramOnLLCD(),
	), benches)
	if err != nil {
		return nil, err
	}
	llcd := cyclesOf(grid[0])
	for si, sch := range []config.Scheme{config.IRStashAllocOnLLCD(), config.IROramOnLLCD()} {
		vals := make([]float64, len(benches))
		for i := range benches {
			vals[i] = llcd[i] / float64(grid[si+1][i].Cycles)
		}
		vals = append(vals, stats.GeoMean(vals))
		t.AddSeries(sch.Name, vals)
	}
	return t, nil
}
