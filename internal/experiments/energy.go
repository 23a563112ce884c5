package experiments

import (
	"iroram/internal/config"
	"iroram/internal/energy"
	"iroram/internal/stats"
)

// Energy reproduces the Section VI-F energy discussion: estimated total
// energy per scheme normalized to Baseline, plus the DRAM share that makes
// on-chip overheads negligible. The paper reports savings proportional to
// the performance improvement (~57% over Baseline for IR-ORAM at full
// scale).
func Energy(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "mean")
	t := stats.NewTable("Section VI-F: estimated energy normalized to Baseline", rows...)
	costs := energy.DefaultCosts()

	schemes := []config.Scheme{
		config.Baseline(), config.IRAllocScheme(), config.IROramScheme(),
	}
	grid, err := opts.runBatch(opts.variants(schemes...), benches)
	if err != nil {
		return nil, err
	}
	baseTotals := make([]float64, len(benches))
	baseShares := make([]float64, len(benches))
	for i, res := range grid[0] {
		est := energy.Estimate(res, costs)
		baseTotals[i] = est.Total()
		baseShares[i] = est.DRAMShare()
	}
	t.AddSeries("Baseline DRAM share", append(append([]float64{}, baseShares...),
		stats.Mean(baseShares)))

	for si, sch := range schemes[1:] {
		vals := make([]float64, len(benches))
		for i, res := range grid[si+1] {
			if baseTotals[i] > 0 {
				vals[i] = energy.Estimate(res, costs).Total() / baseTotals[i]
			}
		}
		vals = append(vals, stats.Mean(vals))
		t.AddSeries(sch.Name+" energy", vals)
	}
	return t, nil
}
