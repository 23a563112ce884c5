package experiments

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/stats"
)

// The ablation studies behind design choices the paper states without
// plotting: S-Stash associativity ("we tested different set associativities
// and choose 4-way"), the timing-protection interval T (Section III-A's
// trade-off discussion), and the core's memory-level parallelism (the
// difference between a blocking core and the paper's OoO setup). Each sweep
// fans its (setting × benchmark) cells as one parallel batch.

// SStashAssocAblation sweeps the S-Stash associativity under IR-Stash and
// reports one series, the gmean speedup over Baseline. Low associativity
// refuses more tree-top fills (blocks bounce back to the F-Stash), eroding
// IR-Stash's benefit — the reason the paper picked 4-way.
func SStashAssocAblation(opts Options) (*stats.Table, error) {
	ways := []int{1, 2, 4, 8}
	benches := opts.benchmarks()
	rows := make([]string, len(ways))
	for i, w := range ways {
		rows[i] = fmt.Sprintf("%d-way", w)
	}
	t := stats.NewTable("Ablation: S-Stash associativity (IR-Stash)", rows...)

	// Baseline and the (ways × benchmark) sweep run as one batch.
	vs := append(opts.variants(config.Baseline()),
		opts.sweep(config.IRStashScheme(), rows, func(i int, cfg *config.System) {
			cfg.ORAM.SStashWays = ways[i]
		})...)
	grid, err := opts.runBatch(vs, benches)
	if err != nil {
		return nil, err
	}
	base := cyclesOf(grid[0])
	speedups := make([]float64, len(ways))
	for wi := range ways {
		var sps []float64
		for i, res := range grid[wi+1] {
			sps = append(sps, base[i]/float64(res.Cycles))
		}
		speedups[wi] = stats.GeoMean(sps)
	}
	t.AddSeries("gmean speedup", speedups)
	return t, nil
}

// IntervalAblation sweeps the timing-protection interval T under Baseline:
// smaller T means more dummy paths (bandwidth waste); larger T delays
// demand requests arriving between issues. The paper fixes T=1000 for all
// benchmarks to avoid the covert channel of per-application T.
func IntervalAblation(opts Options) (*stats.Table, error) {
	intervals := []uint64{250, 500, 1000, 2000, 4000}
	benches := opts.benchmarks()
	rows := make([]string, len(intervals))
	for i, tv := range intervals {
		rows[i] = fmt.Sprintf("T=%d", tv)
	}
	t := stats.NewTable("Ablation: timing-protection interval (Baseline)", rows...)
	grid, err := opts.runBatch(opts.sweep(config.Baseline(), rows, func(i int, cfg *config.System) {
		cfg.ORAM.IntervalT = intervals[i]
	}), benches)
	if err != nil {
		return nil, err
	}
	cycles := make([]float64, len(intervals))
	dummyShare := make([]float64, len(intervals))
	for ti := range intervals {
		var cyc, dshare []float64
		for _, res := range grid[ti] {
			cyc = append(cyc, float64(res.Cycles))
			if res.ORAM.Paths.Total() > 0 {
				dshare = append(dshare, res.ORAM.Paths.Fraction(block.PathDummy))
			}
		}
		cycles[ti] = stats.Mean(cyc)
		dummyShare[ti] = stats.Mean(dshare)
	}
	// Normalize cycles to the T=1000-ish middle entry for readability.
	ref := cycles[len(cycles)/2]
	norm := make([]float64, len(cycles))
	for i, c := range cycles {
		if ref > 0 {
			norm[i] = c / ref
		}
	}
	t.AddSeries("normalized time", norm)
	t.AddSeries("dummy share", dummyShare)
	return t, nil
}

// MLPAblation sweeps the core's outstanding-miss budget under Baseline,
// quantifying how much of Path ORAM's cost an OoO core can hide — the
// modeling decision DESIGN.md documents.
func MLPAblation(opts Options) (*stats.Table, error) {
	mlps := []int{1, 2, 4, 8}
	benches := opts.benchmarks()
	rows := make([]string, len(mlps))
	for i, m := range mlps {
		rows[i] = fmt.Sprintf("MLP=%d", m)
	}
	t := stats.NewTable("Ablation: core memory-level parallelism (Baseline)", rows...)
	grid, err := opts.runBatch(opts.sweep(config.Baseline(), rows, func(i int, cfg *config.System) {
		cfg.CPU.MLP = mlps[i]
	}), benches)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(mlps))
	var ref float64
	for mi, m := range mlps {
		vals[mi] = stats.Mean(cyclesOf(grid[mi]))
		if m == 1 {
			ref = vals[mi]
		}
	}
	if ref == 0 {
		ref = vals[0]
	}
	for i := range vals {
		vals[i] /= ref
	}
	t.AddSeries("time vs blocking core", vals)
	return t, nil
}

// PLBAblation sweeps the PLB capacity under Baseline: the PosMap-path share
// is the PLB's miss traffic, the quantity IR-Stash then attacks.
func PLBAblation(opts Options) (*stats.Table, error) {
	entries := []int{16, 32, 64, 128}
	benches := opts.benchmarks()
	rows := make([]string, len(entries))
	for i, e := range entries {
		rows[i] = fmt.Sprintf("PLB=%d", e)
	}
	t := stats.NewTable("Ablation: PLB capacity (Baseline)", rows...)
	grid, err := opts.runBatch(opts.sweep(config.Baseline(), rows, func(i int, cfg *config.System) {
		cfg.ORAM.PLBEntries = entries[i]
		cfg.ORAM.PLBWays = min(entries[i], 4)
	}), benches)
	if err != nil {
		return nil, err
	}
	pos := make([]float64, len(entries))
	norm := make([]float64, len(entries))
	var ref float64
	for ei := range entries {
		var posShare, cyc []float64
		for _, res := range grid[ei] {
			posShare = append(posShare, res.ORAM.PosPathFraction())
			cyc = append(cyc, float64(res.Cycles))
		}
		pos[ei] = stats.Mean(posShare)
		norm[ei] = stats.Mean(cyc)
		if ei == 0 {
			ref = norm[ei]
		}
	}
	for i := range norm {
		if ref > 0 {
			norm[i] /= ref
		}
	}
	t.AddSeries("PTp share", pos)
	t.AddSeries("normalized time", norm)
	return t, nil
}
