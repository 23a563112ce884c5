package experiments

import (
	"strings"
	"testing"

	"iroram/internal/config"
)

func TestTable2Shapes(t *testing.T) {
	tab, err := Table2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// lbm must be far more write-intensive than gcc in the simulation, as
	// in Table II.
	lbmW, _ := tab.Get("lbm", "write MPKI (sim)")
	gccW, _ := tab.Get("gcc", "write MPKI (sim)")
	if lbmW <= gccW {
		t.Errorf("lbm write MPKI %.2f <= gcc %.2f", lbmW, gccW)
	}
	mcfR, _ := tab.Get("mcf", "read MPKI (sim)")
	if mcfR < 1 {
		t.Errorf("mcf read MPKI %.2f implausibly low", mcfR)
	}
}

func TestFig2Distribution(t *testing.T) {
	tab, err := Fig2(Quick())
	if err != nil {
		t.Fatal(err)
	}
	// Fractions per row must sum to about 1 across the five types.
	for _, row := range tab.Rows {
		sum := 0.0
		for _, s := range tab.Series {
			v, _ := tab.Get(row, s.Name)
			sum += v
		}
		if sum < 0.98 || sum > 1.02 {
			t.Errorf("%s: type fractions sum to %.3f", row, sum)
		}
	}
	// PTd dominates PosMap types on average, and Pos1 > Pos2 (Fig 2).
	ptd, _ := tab.Get("avg", "PTd")
	p1, _ := tab.Get("avg", "PTp(Pos1)")
	p2, _ := tab.Get("avg", "PTp(Pos2)")
	if ptd <= p1 || p1 < p2 {
		t.Errorf("ordering violated: PTd=%.3f Pos1=%.3f Pos2=%.3f", ptd, p1, p2)
	}
}

func TestFig3UtilizationBands(t *testing.T) {
	opts := Quick()
	opts.Requests = 4000
	tab, err := Fig3(opts)
	if err != nil {
		t.Fatal(err)
	}
	levels := opts.Base.ORAM.Levels
	final := tab.Series[len(tab.Series)-1]
	leaf := final.Values[levels-1]
	mid := final.Values[levels-4]
	if leaf <= mid {
		t.Errorf("leaf utilization %.3f not above middle %.3f", leaf, mid)
	}
	if leaf < 0.5 {
		t.Errorf("leaf utilization %.3f below the paper's 70-80%% band shape", leaf)
	}
}

func TestFig5MigrationSkew(t *testing.T) {
	opts := Quick()
	tab, err := Fig5(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Pre-existing blocks skew toward the root relative to fetched blocks:
	// compare cumulative share over the top half.
	half := opts.Base.ORAM.Levels / 2
	pre, fetched := 0.0, 0.0
	for l := 0; l < half; l++ {
		p, _ := tab.Get(tab.Rows[l], "pre-existing")
		f, _ := tab.Get(tab.Rows[l], "fetched")
		pre += p
		fetched += f
	}
	if pre <= fetched {
		t.Errorf("pre-existing top-half share %.3f <= fetched %.3f (Fig 5 shape)", pre, fetched)
	}
}

func TestFig6TreeTopReuse(t *testing.T) {
	opts := Quick()
	tab, err := Fig6(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Structural checks only at tiny scale: the tree-top share itself is a
	// scaled-geometry measurement (see EXPERIMENTS.md, Fig 6). The
	// cumulative series must be monotone and end at 1.
	prev := -1.0
	for _, row := range tab.Rows {
		c, ok := tab.Get(row, "cumulative")
		if !ok || c < prev-1e-9 {
			t.Fatalf("cumulative series not monotone at %s (%v after %v)", row, c, prev)
		}
		prev = c
	}
	last, _ := tab.Get(tab.Rows[len(tab.Rows)-1], "cumulative")
	if last < 0.99 || last > 1.01 {
		t.Errorf("cumulative share ends at %.3f", last)
	}
}

func TestFig7Arithmetic(t *testing.T) {
	opts := Default() // pure arithmetic: cheap even at full scale
	opts.Base = config.Paper()
	tab, err := Fig7(opts)
	if err != nil {
		t.Fatal(err)
	}
	for row, want := range map[string]float64{
		"no top cache":               100,
		"top cache (Baseline)":       60,
		"IR-Alloc (IR-ORAM profile)": 43,
	} {
		got, ok := tab.Get(row, "blocks/path")
		if !ok || got != want {
			t.Errorf("%s: %v, want %v", row, got, want)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	opts := Quick()
	tab, err := Fig10(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline normalizes to 1; IR-ORAM must beat Baseline and IR-Alloc
	// alone on the mean.
	for _, row := range tab.Rows {
		v, _ := tab.Get(row, "Baseline")
		if v != 1 {
			t.Errorf("%s: Baseline speedup %v != 1", row, v)
		}
	}
	iroram, _ := tab.Get("gmean", "IR-ORAM")
	if iroram <= 1 {
		t.Errorf("IR-ORAM gmean speedup %.3f <= 1", iroram)
	}
	alloc, _ := tab.Get("gmean", "IR-Alloc")
	if alloc <= 1 {
		t.Errorf("IR-Alloc gmean speedup %.3f <= 1", alloc)
	}
}

func TestFig14Reduction(t *testing.T) {
	opts := Quick()
	tab, err := Fig14(opts)
	if err != nil {
		t.Fatal(err)
	}
	mean, _ := tab.Get("mean", "normalized PosMap accesses")
	if mean >= 1.05 {
		t.Errorf("IR-Stash PosMap accesses %.3f of Baseline; expected reduction", mean)
	}
}

func TestFig15DummyDrop(t *testing.T) {
	opts := Quick()
	tab, err := Fig15(opts)
	if err != nil {
		t.Fatal(err)
	}
	base, _ := tab.Get("avg", "dummy (Baseline)")
	dwb, _ := tab.Get("avg", "dummy (IR-DWB)")
	conv, _ := tab.Get("avg", "converted (IR-DWB)")
	if conv <= 0 {
		t.Fatal("nothing converted on average")
	}
	if dwb >= base {
		t.Errorf("dummy share %.3f with DWB >= %.3f without", dwb, base)
	}
}

func TestFig16Runs(t *testing.T) {
	opts := Quick()
	opts.Requests = 1200
	tab, err := Fig16(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("rows %v", tab.Rows)
	}
	for _, row := range tab.Rows {
		sp, _ := tab.Get(row, "speedup")
		if sp <= 0.8 {
			t.Errorf("%s: speedup %.3f", row, sp)
		}
	}
}

func TestZSearchRespectsConstraints(t *testing.T) {
	opts := Quick()
	opts.Requests = 1200
	opts.Artifacts = &ArtifactLog{}
	prof, err := ZSearch(opts)
	if err != nil {
		t.Fatal(err)
	}
	o := opts.Base.ORAM
	base := config.Uniform(o.Levels, 4)
	if red := prof.SpaceReductionVs(base, o.TopLevels); red >= 0.01 {
		t.Errorf("space reduction %.4f violates the 1%% constraint", red)
	}
	for l := o.TopLevels; l < o.Levels; l++ {
		if prof[l] < 1 || prof[l] > 4 {
			t.Errorf("level %d: Z=%d", l, prof[l])
		}
	}
	// The search's probe records: the uniform baseline, then one per
	// accepted move, each carrying its background evictions as Value.
	recs := opts.Artifacts.Records()
	if len(recs) == 0 || recs[0].Label != "uniform" {
		t.Fatalf("first zsearch record is not the uniform baseline: %+v", recs)
	}
	limit := max(recs[0].Value*1.15, recs[0].Value+4)
	for _, r := range recs[1:] {
		if r.Value > limit {
			t.Errorf("accepted move %s has %v background evictions, limit %v", r.Label, r.Value, limit)
		}
	}
	if len(recs) > 1 && prof.BlocksPerPath(o.TopLevels) >= base.BlocksPerPath(o.TopLevels) {
		t.Error("accepted steps but path did not shrink")
	}
}

func TestDescribeProfile(t *testing.T) {
	p := config.Alloc1Profile(25, 10)
	got := DescribeProfile(p, 10)
	for _, want := range []string{"Z=2@[10,16]", "Z=3@[17,19]", "Z=4@[20,24]"} {
		if !strings.Contains(got, want) {
			t.Errorf("DescribeProfile = %q, missing %q", got, want)
		}
	}
}

func TestNoTimingProtectionAblation(t *testing.T) {
	opts := Quick()
	opts.Benchmarks = []string{"mcf", "lbm"}
	opts.Requests = 1200
	tab, err := NoTimingProtection(opts)
	if err != nil {
		t.Fatal(err)
	}
	with, _ := tab.Get("gmean", "with protection")
	without, _ := tab.Get("gmean", "without protection")
	if with <= 0 || without <= 0 {
		t.Errorf("speedups %v / %v", with, without)
	}
}
