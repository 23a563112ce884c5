package experiments

import (
	"fmt"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/metrics"
	"iroram/internal/sim"
	"iroram/internal/stats"
	"iroram/internal/trace"
)

// Table2 measures each synthetic benchmark's LLC read-miss and dirty
// write-back MPKI under the Baseline system, next to the Table II targets
// the generators were calibrated against.
func Table2(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	t := stats.NewTable("Table II: benchmark memory intensity (measured vs paper)", benches...)
	targetR := make([]float64, len(benches))
	targetW := make([]float64, len(benches))
	for i, b := range benches {
		spec, err := trace.SpecFor(b)
		if err != nil {
			return nil, err
		}
		targetR[i], targetW[i] = spec.ReadMPKI, spec.WriteMPKI
	}
	results, err := opts.runBenches(config.Baseline(), benches)
	if err != nil {
		return nil, err
	}
	gotR := make([]float64, len(benches))
	gotW := make([]float64, len(benches))
	for i, res := range results {
		gotR[i], gotW[i] = res.ReadMPKI(), res.WriteMPKI()
	}
	t.AddSeries("read MPKI (paper)", targetR)
	t.AddSeries("read MPKI (sim)", gotR)
	t.AddSeries("write MPKI (paper)", targetW)
	t.AddSeries("write MPKI (sim)", gotW)
	return t, nil
}

// Fig2 reproduces the path-access-type distribution under Baseline: PT_d
// around half the accesses, PT_p(Pos1) several times PT_p(Pos2), and a
// visible PT_m share from timing protection.
func Fig2(opts Options) (*stats.Table, error) {
	benches := append(opts.benchmarks(), "avg")
	t := stats.NewTable("Fig 2: distribution of path access types (Baseline)", benches...)
	kinds := []struct {
		name  string
		types []block.PathType
	}{
		{"PTd", []block.PathType{block.PathData}},
		{"PTp(Pos1)", []block.PathType{block.PathPos1}},
		{"PTp(Pos2)", []block.PathType{block.PathPos2}},
		{"PTm", []block.PathType{block.PathDummy}},
		{"BgEvict", []block.PathType{block.PathEvict}},
	}
	cols := make([][]float64, len(kinds))
	for i := range cols {
		cols[i] = make([]float64, len(benches))
	}
	results, err := opts.runBenches(config.Baseline(), benches[:len(benches)-1])
	if err != nil {
		return nil, err
	}
	for bi, res := range results {
		for ki, k := range kinds {
			f := 0.0
			for _, pt := range k.types {
				f += res.ORAM.Paths.Fraction(pt)
			}
			cols[ki][bi] = f
		}
	}
	last := len(benches) - 1
	for ki := range kinds {
		cols[ki][last] = stats.Mean(cols[ki][:last])
		t.AddSeries(kinds[ki].name, cols[ki])
	}
	return t, nil
}

// utilizationTable runs the Fig 3 methodology (benchmark mix followed by a
// random tail) under the given scheme and returns utilization-per-level
// snapshots. Shared by Fig 3 (Baseline) and Fig 13 (IR-Alloc). The single
// run goes through mapCells so it honors cancellation like every driver.
// The run's full sim.Result rides along so the figure emits an artifact
// record (and a flight trace, when tracing) like every grid driver.
func utilizationTable(opts Options, sch config.Scheme, title string) (*stats.Table, error) {
	type utilCell struct {
		res   sim.Result
		snaps []sim.UtilSnapshot
	}
	cells, err := mapCells(opts, 1, func(int) (utilCell, error) {
		cfg := opts.configFor(sch)
		s, err := opts.newSystem(cfg)
		if err != nil {
			return utilCell{}, err
		}
		gen := trace.UtilizationTrace(cfg.ORAM.DataBlocks(), opts.Requests, opts.Seed)
		res, out := s.RunWithSnapshots(gen, opts.Requests, 4)
		return utilCell{res: res, snaps: out}, nil
	})
	if err != nil {
		return nil, err
	}
	opts.emit(sch.Name, cells[0].res.Name, "", cells[0].res)
	t := stats.NewTable(title, levelRows(opts.Base.ORAM.Levels)...)
	for _, sn := range cells[0].snaps {
		t.AddSeries(sn.Label, sn.Util)
	}
	return t, nil
}

// Fig3 reproduces the per-level space-utilization snapshots for Baseline:
// fluctuating top levels, ~20-30% middle levels, 70-80% bottom levels.
func Fig3(opts Options) (*stats.Table, error) {
	return utilizationTable(opts, config.Baseline(),
		"Fig 3: space utilization per tree level (Baseline, mix + random tail)")
}

// Fig4 compares final utilization across workload classes (gcc, lbm,
// random), showing the per-benchmark trend of the paper.
func Fig4(opts Options) (*stats.Table, error) {
	benches := []string{"gcc", "lbm", "random"}
	t := stats.NewTable("Fig 4: space utilization per benchmark",
		levelRows(opts.Base.ORAM.Levels)...)
	type utilCell struct {
		res  sim.Result
		util []float64
	}
	cells, err := mapCells(opts, len(benches), func(i int) (utilCell, error) {
		cfg := opts.configFor(config.Baseline())
		s, err := opts.newSystem(cfg)
		if err != nil {
			return utilCell{}, err
		}
		gen, err := trace.Named(benches[i], cfg.ORAM.DataBlocks(), cfg.Seed)
		if err != nil {
			return utilCell{}, err
		}
		res := s.Run(gen, opts.Requests)
		return utilCell{res: res, util: s.Controller().Utilization()}, nil
	})
	if err != nil {
		return nil, err
	}
	for i, b := range benches {
		opts.emit(config.Baseline().Name, b, "", cells[i].res)
		t.AddSeries(b, cells[i].util)
	}
	return t, nil
}

// Fig5 reproduces the block-migration study: at which levels write phases
// place blocks, split by whether the block was fetched by the same path
// access or pre-existed in the stash. Pre-existing blocks skew toward the
// root (small path overlap), fetched blocks toward the leaves.
func Fig5(opts Options) (*stats.Table, error) {
	rs, err := opts.runBenches(config.Baseline(), []string{"mix"})
	if err != nil {
		return nil, err
	}
	res := rs[0]
	levels := opts.Base.ORAM.Levels
	t := stats.NewTable("Fig 5: write-phase placement level by block origin", levelRows(levels)...)
	toShares := func(h *metrics.LinearHist) []float64 {
		total := float64(h.Total())
		out := make([]float64, levels)
		for l, c := range h.Counts {
			if total > 0 {
				out[l] = float64(c) / total
			}
		}
		return out
	}
	t.AddSeries("pre-existing", toShares(res.ORAM.MigrationPreexisting))
	t.AddSeries("fetched", toShares(res.ORAM.MigrationFetched))
	return t, nil
}

// Fig6 reproduces the tree-top reuse study: the share of requested data
// blocks found at each level; the paper reports ~23% of hits within the
// top 10 levels despite their negligible capacity.
func Fig6(opts Options) (*stats.Table, error) {
	rs, err := opts.runBenches(config.Baseline(), []string{"mix"})
	if err != nil {
		return nil, err
	}
	res := rs[0]
	levels := opts.Base.ORAM.Levels
	t := stats.NewTable("Fig 6: level at which requested blocks are found", levelRows(levels)...)
	total := float64(res.ORAM.HitLevels.Total())
	share := make([]float64, levels)
	cum := make([]float64, levels)
	running := 0.0
	for l := 0; l < levels; l++ {
		if total > 0 {
			share[l] = float64(res.ORAM.HitLevels.Counts[l]) / total
		}
		running += share[l]
		cum[l] = running
	}
	t.AddSeries("share", share)
	t.AddSeries("cumulative", cum)
	return t, nil
}

// Fig7 is the per-path block-count arithmetic: no tree-top cache vs the
// 10-level dedicated cache vs the integrated IR-Alloc profile (100 / 60 /
// 43 at the paper's L=25).
func Fig7(opts Options) (*stats.Table, error) {
	o := opts.Base.ORAM
	t := stats.NewTable(
		fmt.Sprintf("Fig 7: data blocks moved per path access (L=%d, top %d levels on-chip)",
			o.Levels, o.TopLevels),
		"no top cache", "top cache (Baseline)", "IR-Alloc (IR-ORAM profile)")
	uni := config.Uniform(o.Levels, 4)
	t.AddSeries("blocks/path", []float64{
		float64(uni.BlocksPerPath(0)),
		float64(uni.BlocksPerPath(o.TopLevels)),
		float64(config.IROramProfile(o.Levels, o.TopLevels).BlocksPerPath(o.TopLevels)),
	})
	return t, nil
}

// Fig10 is the headline performance comparison: speedup over Baseline for
// Rho, IR-Alloc, IR-Stash, IR-DWB and integrated IR-ORAM, per benchmark
// plus the mix bar and the mean. The whole (scheme × benchmark) grid runs
// as one parallel batch; the Baseline row doubles as the normalization
// reference (it used to be simulated twice).
func Fig10(opts Options) (*stats.Table, error) {
	benches := append(opts.benchmarks(), "mix")
	rows := append(append([]string{}, benches...), "gmean")
	t := stats.NewTable("Fig 10: speedup over Baseline", rows...)

	schemes := []config.Scheme{
		config.Baseline(), config.RhoScheme(), config.IRAllocScheme(),
		config.IRStashScheme(), config.IRDWBScheme(), config.IROramScheme(),
	}
	grid, err := opts.runGrid(schemes, benches)
	if err != nil {
		return nil, err
	}
	baseCycles := cyclesOf(grid[0])
	for si, sch := range schemes {
		sp := speedups(baseCycles, cyclesOf(grid[si]))
		sp = append(sp, stats.GeoMean(sp))
		t.AddSeries(sch.Name, sp)
	}
	return t, nil
}

// Fig11 evaluates IR-Stash+IR-Alloc on top of an LLC-D baseline, plus the
// LLC-D-vs-Baseline column that shows the mcf regression.
func Fig11(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "gmean")
	t := stats.NewTable("Fig 11: IR-Stash+IR-Alloc over an LLC-D baseline", rows...)
	grid, err := opts.runGrid([]config.Scheme{
		config.Baseline(), config.LLCDScheme(), config.IRStashAllocOnLLCD(),
	}, benches)
	if err != nil {
		return nil, err
	}
	base, llcd, combo := cyclesOf(grid[0]), cyclesOf(grid[1]), cyclesOf(grid[2])
	vsBase := speedups(base, llcd)
	vsLLCD := speedups(llcd, combo)
	vsBase = append(vsBase, stats.GeoMean(vsBase))
	vsLLCD = append(vsLLCD, stats.GeoMean(vsLLCD))
	t.AddSeries("LLC-D vs Baseline", vsBase)
	t.AddSeries("IR-Stash+IR-Alloc vs LLC-D", vsLLCD)
	return t, nil
}

// Fig12 sweeps the four IR-Alloc configurations of Section VI-B, reporting
// execution time normalized to Baseline and the share of time spent in
// background eviction (the shaded portion of the paper's bars).
func Fig12(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "mean")
	t := stats.NewTable("Fig 12: IR-Alloc configurations (normalized time; bg-eviction share)", rows...)
	o := opts.Base.ORAM
	profiles := []struct {
		name string
		prof config.ZProfile
	}{
		{"IR-Alloc1", config.Alloc1Profile(o.Levels, o.TopLevels)},
		{"IR-Alloc2", config.Alloc2Profile(o.Levels, o.TopLevels)},
		{"IR-Alloc3", config.Alloc3Profile(o.Levels, o.TopLevels)},
		{"IR-Alloc4", config.Alloc4Profile(o.Levels, o.TopLevels)},
	}
	baseRes, err := opts.runBenches(config.Baseline(), benches)
	if err != nil {
		return nil, err
	}
	base := cyclesOf(baseRes)
	// One batch for the whole (profile × benchmark) sweep.
	nb := len(benches)
	flat, err := mapCells(opts, len(profiles)*nb, func(i int) (sim.Result, error) {
		return opts.runProfile(config.IRAllocScheme(), profiles[i/nb].prof, benches[i%nb])
	})
	if err != nil {
		return nil, err
	}
	for pi, p := range profiles {
		norm := make([]float64, nb)
		bgShare := make([]float64, nb)
		for i := 0; i < nb; i++ {
			res := flat[pi*nb+i]
			opts.emit(config.IRAllocScheme().Name, benches[i], p.name, res)
			norm[i] = float64(res.Cycles) / base[i]
			if res.Cycles > 0 {
				bgShare[i] = float64(res.ORAM.BgEvictionCycles) / float64(res.Cycles)
			}
		}
		norm = append(norm, stats.Mean(norm))
		bgShare = append(bgShare, stats.Mean(bgShare))
		t.AddSeries(p.name, norm)
		t.AddSeries(p.name+" bg", bgShare)
	}
	return t, nil
}

// Fig13 repeats the utilization study under IR-Alloc: middle levels run
// hotter than Fig 3 but stay below saturation for benchmark traces.
func Fig13(opts Options) (*stats.Table, error) {
	return utilizationTable(opts, config.IROramScheme(),
		"Fig 13: space utilization per tree level under IR-Alloc")
}

// Fig14 reports IR-Stash's PosMap path accesses normalized to Baseline
// (the paper measures 49% on average).
func Fig14(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "mean")
	t := stats.NewTable("Fig 14: PosMap accesses of IR-Stash normalized to Baseline", rows...)
	grid, err := opts.runGrid([]config.Scheme{
		config.Baseline(), config.IRStashScheme(),
	}, benches)
	if err != nil {
		return nil, err
	}
	vals := make([]float64, len(benches))
	for i := range benches {
		r0, r1 := grid[0][i], grid[1][i]
		if r0.ORAM.PosMapPaths > 0 {
			vals[i] = float64(r1.ORAM.PosMapPaths) / float64(r0.ORAM.PosMapPaths)
		} else {
			vals[i] = 1
		}
	}
	vals = append(vals, stats.Mean(vals))
	t.AddSeries("normalized PosMap accesses", vals)
	return t, nil
}

// Fig15 reports the access-type distribution with IR-DWB: the dummy share
// drops (11% -> 6% in the paper) and converted write-back slots appear.
func Fig15(opts Options) (*stats.Table, error) {
	benches := append(opts.benchmarks(), "avg")
	t := stats.NewTable("Fig 15: access type distribution under IR-DWB", benches...)
	grid, err := opts.runGrid([]config.Scheme{
		config.Baseline(), config.IRDWBScheme(),
	}, benches[:len(benches)-1])
	if err != nil {
		return nil, err
	}
	dummyBase := make([]float64, len(benches))
	dummyDWB := make([]float64, len(benches))
	converted := make([]float64, len(benches))
	for i := range benches[:len(benches)-1] {
		dummyBase[i] = grid[0][i].ORAM.Paths.Fraction(block.PathDummy)
		dummyDWB[i] = grid[1][i].ORAM.Paths.Fraction(block.PathDummy)
		converted[i] = grid[1][i].ORAM.Paths.Fraction(block.PathDWB)
	}
	last := len(benches) - 1
	dummyBase[last] = stats.Mean(dummyBase[:last])
	dummyDWB[last] = stats.Mean(dummyDWB[:last])
	converted[last] = stats.Mean(converted[:last])
	t.AddSeries("dummy (Baseline)", dummyBase)
	t.AddSeries("dummy (IR-DWB)", dummyDWB)
	t.AddSeries("converted (IR-DWB)", converted)
	return t, nil
}

// Fig16 is the IR-Alloc scalability study: speedup over Baseline on random
// traces as the protected memory grows (levels-1, levels, levels+1), with
// the across-seed standard deviation over three seeds, which the paper
// reports as negligible. All (geometry × seed × scheme) cells run as one
// parallel batch.
func Fig16(opts Options) (*stats.Table, error) {
	const seeds = 3
	baseLevels := opts.Base.ORAM.Levels
	deltas := []int{-1, 0, 1}
	rows := []string{}
	for _, d := range deltas {
		rows = append(rows, fmt.Sprintf("L=%d", baseLevels+d))
	}
	t := stats.NewTable("Fig 16: IR-Alloc scalability on random traces", rows...)

	type cell struct {
		levels int
		seed   uint64
		alloc  bool
	}
	var cells []cell
	for _, d := range deltas {
		for s := 0; s < seeds; s++ {
			seed := opts.Seed + uint64(s)*7919
			cells = append(cells, cell{levels: baseLevels + d, seed: seed, alloc: false})
			cells = append(cells, cell{levels: baseLevels + d, seed: seed, alloc: true})
		}
	}
	results, err := mapCells(opts, len(cells), func(i int) (sim.Result, error) {
		c := cells[i]
		o := opts
		o.Seed = c.seed
		o.Base.ORAM.Levels = c.levels
		o.Base.ORAM.Z = config.Uniform(c.levels, 4)
		o.Base.ORAM.UserBlocks = 0
		if !c.alloc {
			return o.runOne(config.Baseline(), "random")
		}
		// The paper re-runs its Z-finding algorithm per geometry; the
		// integrated (Z>=2) profile is the one that passes the random-trace
		// background-eviction constraint at every L here, so it stands in
		// for the per-geometry search result.
		return o.runProfile(config.IRAllocScheme(),
			config.IROramProfile(c.levels, o.Base.ORAM.TopLevels), "random")
	})
	if err != nil {
		return nil, err
	}
	for i, c := range cells {
		o := opts
		o.Seed = c.seed
		name := config.Baseline().Name
		if c.alloc {
			name = config.IRAllocScheme().Name
		}
		o.emit(name, "random", fmt.Sprintf("L=%d", c.levels), results[i])
	}
	mean := make([]float64, 0, len(deltas))
	dev := make([]float64, 0, len(deltas))
	for di := range deltas {
		var sps []float64
		for s := 0; s < seeds; s++ {
			i := (di*seeds + s) * 2
			r0, r1 := results[i], results[i+1]
			sps = append(sps, float64(r0.Cycles)/float64(r1.Cycles))
		}
		mean = append(mean, stats.Mean(sps))
		dev = append(dev, stats.StdDev(sps))
	}
	t.AddSeries("speedup", mean)
	t.AddSeries("stddev", dev)
	return t, nil
}

// NoTimingProtection is the Section VI-A ablation: IR-Alloc's speedup with
// the timing channel defence disabled (T=0) next to the protected runs. The
// four (interval × scheme) sweeps run as one parallel batch.
func NoTimingProtection(opts Options) (*stats.Table, error) {
	benches := opts.benchmarks()
	rows := append(append([]string{}, benches...), "gmean")
	t := stats.NewTable("Ablation: IR-Alloc speedup with and without timing protection", rows...)
	tp := opts.Base.ORAM.IntervalT
	variants := []struct {
		interval uint64
		sch      config.Scheme
	}{
		{tp, config.Baseline()},
		{tp, config.IRAllocScheme()},
		{0, config.Baseline()},
		{0, config.IRAllocScheme()},
	}
	nb := len(benches)
	flat, err := mapCells(opts, len(variants)*nb, func(i int) (sim.Result, error) {
		v := variants[i/nb]
		o := opts
		o.Base.ORAM.IntervalT = v.interval
		return o.runOne(v.sch, benches[i%nb])
	})
	if err != nil {
		return nil, err
	}
	for vi, v := range variants {
		for i, b := range benches {
			opts.emit(v.sch.Name, b, fmt.Sprintf("T=%d", v.interval), flat[vi*nb+i])
		}
	}
	row := func(vi int) []float64 { return cyclesOf(flat[vi*nb : (vi+1)*nb]) }
	withTP := speedups(row(0), row(1))
	without := speedups(row(2), row(3))
	withTP = append(withTP, stats.GeoMean(withTP))
	without = append(without, stats.GeoMean(without))
	t.AddSeries("with protection", withTP)
	t.AddSeries("without protection", without)
	return t, nil
}
