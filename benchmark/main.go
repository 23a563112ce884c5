// Command benchmark is the repository's end-to-end benchmark. It measures
// the simulator in both of its performance domains: host time (how fast
// the simulator runs) through the public iroram API, and simulated cost
// (the cycles and DRAM blocks the modeled controller spends), which is the
// paper's metric.
//
// Usage, from the repository root:
//
//	bash benchmark/run.sh --workload lbm-iroram --seed 1 --seconds 20 --trace 0
//
// run.sh builds this module and runs it. One invocation runs one workload:
//
//   - mcf-baseline: Baseline Path ORAM, read-chasing mcf, 1.2M requests.
//   - lbm-iroram: IR-ORAM, write-streaming lbm, 200k requests.
//   - xz-ring: Ring ORAM, mixed xz, 800k requests.
//   - fig-all-quick: every paper figure at quick scale (30k requests per
//     cell, 2 jobs, cell dedup and overlap).
//
// The first three use the scaled geometry (L=21) and one goroutine. Every
// repetition builds its Systems from scratch: modeled caches and trees
// start empty and the statistics cover the whole run. --seed seeds the
// System and its trace (Options.Seed for the sweep).
//
// With --trace 0 the run times five set-ups, then runs repetitions until
// the next one would end past --seconds (at least two) and prints the
// end-to-end metrics: for host metrics, medians over the repetitions or
// over twenty timed windows of each; exact values for simulated ones.
// With --trace 1 it runs untraced and then traced repetitions, each for
// half the budget, and prints the per-layer metrics: harness spans around
// the trace and sim calls, a CPU profile attributed to the repository's
// packages, and per-component simulated statistics.
//
// Every repetition is checked: CheckInvariants, no stash over capacity, no
// non-uniform path issue, every asked request consumed, no sweep error,
// and identical simulated output (metrics snapshot, or sweep tables and
// artifact records) across the repetitions of a run. Each metric is printed
// as "workload metric median unit q1= q3= n=", and the last line of stdout
// is one JSON object with correct, attempted, failed and metrics. The exit
// status is 1 if any check failed. README.md has the metric table, bounds
// and the layer-to-metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

// setupBuilds is how many set-ups a --trace 0 run times; setup_s is their
// median, since single set-ups vary by almost a factor of two.
const setupBuilds = 5

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Uint64("seed", 1, "seed of the System and its trace (the sweep's Options.Seed)")
		seconds = fs.Int("seconds", 20, "measurement budget in seconds")
		traced  = fs.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	switch {
	case !ok:
		fmt.Fprintf(stderr, "benchmark: unknown workload %q (want one of %s)\n",
			*name, strings.Join(workloadNames(), ", "))
		return 2
	case *seconds < 1:
		fmt.Fprintf(stderr, "benchmark: --seconds must be at least 1, got %d\n", *seconds)
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintf(stderr, "benchmark: --trace must be 0 or 1, got %d\n", *traced)
		return 2
	case fs.NArg() > 0:
		fmt.Fprintf(stderr, "benchmark: unexpected arguments %q\n", fs.Args())
		return 2
	}

	ss, reps, err := measure(w, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", w.name, err)
		return 1
	}
	res := result{Attempted: len(reps), Metrics: map[string]metric{}}
	for i, r := range reps {
		for _, p := range r.problems {
			fmt.Fprintf(stderr, "benchmark: %s rep %d: %s\n", w.name, i, p)
		}
		if len(r.problems) > 0 {
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	for _, s := range ss {
		q1, med, q3 := quartiles(s.values)
		fmt.Fprintf(stdout, "%s %s %.6g %s q1=%.6g q3=%.6g n=%d\n", w.name, s.name, med, s.unit, q1, q3, len(s.values))
		res.Metrics[s.name] = metric{Value: med, Unit: s.unit}
	}
	data, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// measure runs one workload: set-ups and untraced repetitions for the
// end-to-end metrics, or untraced then profiled repetitions for the
// per-layer ones. It returns the metrics and every checked repetition.
func measure(w workload, seed uint64, budget time.Duration, traced bool) ([]series, []rep, error) {
	var reps []rep
	repOnce := func(sp *spans) func() error {
		return func() error {
			r, err := w.rep(seed, sp)
			if err != nil {
				return err
			}
			reps = append(reps, r)
			return nil
		}
	}
	if !traced {
		setups := make([]float64, setupBuilds)
		for i := range setups {
			start := time.Now()
			if err := w.setup(seed); err != nil {
				return nil, nil, err
			}
			setups[i] = time.Since(start).Seconds()
		}
		if err := repeat(budget, 2, repOnce(nil)); err != nil {
			return nil, nil, err
		}
		compareReps(reps)
		return endToEnd(reps, setups), reps, nil
	}
	if err := repeat(budget/2, 1, repOnce(nil)); err != nil {
		return nil, nil, err
	}
	untraced := len(reps)
	sp := &spans{}
	prof, err := profiled(func() error { return repeat(budget/2, 1, repOnce(sp)) })
	if err != nil {
		return nil, nil, err
	}
	compareReps(reps)
	return perLayer(w, reps[:untraced], reps[untraced:], sp, prof), reps, nil
}

// repeat calls fn at least atLeast times, then again only while the next
// call, if it takes as long as the last, would end within budget.
func repeat(budget time.Duration, atLeast int, fn func() error) error {
	start := time.Now()
	for n := 1; ; n++ {
		t := time.Now()
		if err := fn(); err != nil {
			return err
		}
		if n >= atLeast && time.Since(start)+time.Since(t) > budget {
			return nil
		}
	}
}
