package experiments

import (
	"fmt"

	"iroram/internal/config"
	"iroram/internal/flight"
)

// ZSearch implements the greedy bucket-size search of Section IV-B: starting
// from Z=4 everywhere with Z=3 at the first bottom-band level, it repeatedly
// shrinks the cheapest middle level, accepting a move only while
//
//   - the DRAM space reduction stays within 1%, and
//   - background evictions grow by at most 15% over the uniform baseline,
//
// both evaluated on random memory traces (the worst case for middle-level
// utilization). The search depends only on the ORAM configuration — not on
// applications — so it runs once per deployment.
//
// The greedy loop itself is inherently sequential (each accepted move feeds
// the next iteration), but all candidate evaluations within one iteration
// are independent simulations and fan out across opts.Jobs workers. The
// chosen move is selected from the evaluated batch in ascending level order
// with a strict improvement test, which reproduces the sequential search's
// result exactly. With Options.Artifacts set, the uniform baseline and each
// accepted move leave a probe record (see emitStep below).
func ZSearch(opts Options) (config.ZProfile, error) {
	if opts.Figure == "" {
		opts.Figure = "zsearch"
	}
	o := opts.Base.ORAM
	base := config.Uniform(o.Levels, 4)
	scheme := config.IRAllocScheme()

	type eval struct {
		cycles   uint64
		bg       uint64
		requests uint64
		trace    *flight.Trace
	}
	evaluate := func(prof config.ZProfile) (eval, error) {
		cfg := opts.configFor(scheme)
		cfg.ORAM.Z = prof
		res, err := opts.runCell(cell{cfg: cfg, bench: "random"})
		if err != nil {
			return eval{}, err
		}
		return eval{cycles: res.Cycles, bg: res.ORAM.BgEvictions,
			requests: res.Requests, trace: res.Flight}, nil
	}
	// The search reduces each evaluation to (cycles, evictions), so the
	// sidecar carries partial records: one for the uniform baseline and one
	// per accepted move, background evictions as the headline value. Flight
	// traces, when requested, follow the same policy — only the baseline and
	// the accepted moves export, appended here on the calling goroutine.
	emitStep := func(label string, e eval) {
		opts.emitProbe(scheme.Name, "random", label, e.requests, e.cycles, float64(e.bg))
		if opts.Flight != nil && e.trace != nil {
			opts.Flight.Add(FlightCell{Figure: opts.Figure, Scheme: scheme.Name,
				Benchmark: "random", Label: label, Trace: e.trace})
		}
	}

	baseEval, err := evaluate(base)
	if err != nil {
		return nil, err
	}
	emitStep("uniform", baseEval)
	baseCycles, baseBg := baseEval.cycles, baseEval.bg
	bgLimit := baseBg + baseBg*15/100
	if bgLimit < baseBg+4 {
		bgLimit = baseBg + 4 // headroom for near-zero baselines at small scale
	}

	current := append(config.ZProfile(nil), base...)
	// The paper's starting point: Z=3 at the first bottom-band level
	// ("level 19" at L=25, i.e. 6 levels above the leaves).
	if start := o.Levels - 6; start >= o.TopLevels {
		cand := append(config.ZProfile(nil), current...)
		cand[start] = 3
		if e, err := evaluate(cand); err != nil {
			return nil, err
		} else if e.bg <= bgLimit && cand.SpaceReductionVs(base, o.TopLevels) < 0.01 {
			current = cand
			baseCycles = e.cycles
			emitStep(fmt.Sprintf("L%d=Z3", start), e)
		}
	}

	for iter := 0; iter < 4*o.Levels; iter++ {
		// Enumerate the candidate moves. Shrink middle levels top-down:
		// upper levels hold the least data, so they are the cheapest to
		// shrink (the paper's "gradually shrink lower levels" greedy order,
		// expressed leaf-relative).
		type candidate struct {
			level int
			prof  config.ZProfile
		}
		var cands []candidate
		for l := o.TopLevels; l < o.Levels-1; l++ {
			if current[l] <= 1 {
				continue
			}
			cand := append(config.ZProfile(nil), current...)
			cand[l]--
			if cand.SpaceReductionVs(base, o.TopLevels) >= 0.01 {
				continue
			}
			cands = append(cands, candidate{level: l, prof: cand})
		}
		evals, err := mapCells(opts, len(cands), func(i int) (eval, error) {
			return evaluate(cands[i].prof)
		})
		if err != nil {
			return nil, err
		}
		bestIdx := -1
		for i, e := range evals {
			if e.bg > bgLimit {
				continue
			}
			if e.cycles < baseCycles && (bestIdx < 0 || e.cycles < evals[bestIdx].cycles) {
				bestIdx = i
			}
		}
		if bestIdx < 0 {
			break // local maximum in performance improvement
		}
		best := cands[bestIdx]
		current[best.level]--
		baseCycles = evals[bestIdx].cycles
		emitStep(fmt.Sprintf("L%d=Z%d", best.level, current[best.level]), evals[bestIdx])
	}
	return current, nil
}

// DescribeProfile renders a profile as compact level ranges, e.g.
// "Z=2@[10,16] Z=3@[17,19] Z=4@[20,24]".
func DescribeProfile(p config.ZProfile, topLevels int) string {
	out := ""
	l := topLevels
	for l < len(p) {
		r := l
		for r+1 < len(p) && p[r+1] == p[l] {
			r++
		}
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("Z=%d@[%d,%d]", p[l], l, r)
		l = r + 1
	}
	return out
}
