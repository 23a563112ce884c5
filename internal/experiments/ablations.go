package experiments

import (
	"fmt"

	"iroram/internal/config"
	"iroram/internal/sim"
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

	baseRes, err := opts.runBenches(config.Baseline(), benches)
	if err != nil {
		return nil, err
	}
	base := cyclesOf(baseRes)
	nb := len(benches)
	flat, err := mapCells(opts, len(ways)*nb, func(i int) (sim.Result, error) {
		o := opts
		o.Base.ORAM.SStashWays = ways[i/nb]
		return o.runOne(config.IRStashScheme(), benches[i%nb])
	})
	if err != nil {
		return nil, err
	}
	opts.emitFlat(config.IRStashScheme().Name, benches, rows, flat)
	speedups := make([]float64, len(ways))
	for wi := range ways {
		var sps []float64
		for i := 0; i < nb; i++ {
			sps = append(sps, base[i]/float64(flat[wi*nb+i].Cycles))
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
	nb := len(benches)
	flat, err := mapCells(opts, len(intervals)*nb, func(i int) (sim.Result, error) {
		o := opts
		o.Base.ORAM.IntervalT = intervals[i/nb]
		return o.runOne(config.Baseline(), benches[i%nb])
	})
	if err != nil {
		return nil, err
	}
	opts.emitFlat(config.Baseline().Name, benches, rows, flat)
	cycles := make([]float64, len(intervals))
	dummyShare := make([]float64, len(intervals))
	for ti := range intervals {
		var cyc, dshare []float64
		for i := 0; i < nb; i++ {
			res := flat[ti*nb+i]
			cyc = append(cyc, float64(res.Cycles))
			if total := res.ORAM.Paths.Total(); total > 0 {
				dshare = append(dshare, float64(res.ORAM.DummyPaths)/float64(total))
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
	nb := len(benches)
	flat, err := mapCells(opts, len(mlps)*nb, func(i int) (sim.Result, error) {
		o := opts
		o.Base.CPU.MLP = mlps[i/nb]
		return o.runOne(config.Baseline(), benches[i%nb])
	})
	if err != nil {
		return nil, err
	}
	opts.emitFlat(config.Baseline().Name, benches, rows, flat)
	vals := make([]float64, len(mlps))
	var ref float64
	for mi, m := range mlps {
		vals[mi] = stats.Mean(cyclesOf(flat[mi*nb : (mi+1)*nb]))
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
	nb := len(benches)
	flat, err := mapCells(opts, len(entries)*nb, func(i int) (sim.Result, error) {
		e := entries[i/nb]
		o := opts
		o.Base.ORAM.PLBEntries = e
		o.Base.ORAM.PLBWays = 4
		if e < 4 {
			o.Base.ORAM.PLBWays = e
		}
		return o.runOne(config.Baseline(), benches[i%nb])
	})
	if err != nil {
		return nil, err
	}
	opts.emitFlat(config.Baseline().Name, benches, rows, flat)
	pos := make([]float64, len(entries))
	norm := make([]float64, len(entries))
	var ref float64
	for ei := range entries {
		var posShare, cyc []float64
		for i := 0; i < nb; i++ {
			res := flat[ei*nb+i]
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
