package experiments

import (
	"iroram/internal/config"
	"iroram/internal/stats"
)

// Ring evaluates the Section VII orthogonality claim: Ring ORAM (Ren et
// al.) as an alternative read protocol, alone and composed with the
// IR-Alloc bucket-size profile. Reported per benchmark: speedup over the
// Path ORAM Baseline and the DRAM blocks moved per access (the bandwidth
// metric both designs fight over).
func Ring(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "gmean")
	t := stats.NewTable("Ring ORAM integration (Section VII)", rows...)

	schemes := []config.Scheme{
		config.Baseline(), config.RingScheme(), config.RingIRAlloc(),
	}
	grid, err := opts.runBatch(opts.variants(schemes...), benches)
	if err != nil {
		return nil, err
	}
	base := cyclesOf(grid[0])
	for si, sch := range schemes[1:] {
		speed := make([]float64, len(benches))
		blocks := make([]float64, len(benches))
		for i, res := range grid[si+1] {
			speed[i] = base[i] / float64(res.Cycles)
			if total := res.ORAM.Paths.Total(); total > 0 {
				blocks[i] = float64(res.ORAM.Paths.BlocksRead+res.ORAM.Paths.BlocksWrit) /
					float64(total)
			}
		}
		gm := stats.GeoMean(speed)
		t.AddSeries(sch.Name+" speedup", append(append([]float64{}, speed...), gm))
		t.AddSeries(sch.Name+" blk/acc", append(append([]float64{}, blocks...), stats.Mean(blocks)))
	}
	return t, nil
}
