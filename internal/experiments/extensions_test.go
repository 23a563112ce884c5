package experiments

import (
	"testing"

	"iroram/internal/config"
)

func TestCoRunInterference(t *testing.T) {
	opts := Quick()
	opts.Requests = 2400
	tab, err := CoRun(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"Baseline", "IR-ORAM"} {
		f, ok := tab.Get("gcc+mcf", series)
		if !ok {
			t.Fatalf("missing series %s", series)
		}
		// Sharing one controller cannot be much faster than perfect
		// time-slicing, and pathological blowups indicate a bug.
		if f < 0.5 || f > 4 {
			t.Errorf("%s interference factor %.3f implausible", series, f)
		}
	}
}

func TestFutureWorkProactiveRemap(t *testing.T) {
	opts := Quick()
	opts.Requests = 2500
	opts.Benchmarks = []string{"mcf", "bla"} // read-heavy: LLC-D's weak spot
	tab, err := FutureWork(opts)
	if err != nil {
		t.Fatal(err)
	}
	combo, _ := tab.Get("gmean", "IR-Stash+IR-Alloc/LLC-D")
	proactive, _ := tab.Get("gmean", "IR-ORAM/LLC-D")
	if combo <= 0 || proactive <= 0 {
		t.Fatalf("speedups %.3f / %.3f", combo, proactive)
	}
}

func TestProactiveRemapPrefetches(t *testing.T) {
	opts := Quick()
	opts.Requests = 3000
	res, err := opts.runCell(cell{cfg: opts.configFor(config.IROramOnLLCD()), bench: "bla"})
	if err != nil {
		t.Fatal(err)
	}
	if res.ORAM.ProactiveRemaps == 0 {
		t.Error("proactive remapping never prefetched a PosMap entry")
	}
	if res.ORAM.NonUniformIssues != 0 {
		t.Errorf("%d issue-gap violations under proactive remapping",
			res.ORAM.NonUniformIssues)
	}
}

func TestSStashAssocAblation(t *testing.T) {
	opts := Quick()
	opts.Requests = 1500
	opts.Benchmarks = []string{"gcc"}
	tab, err := SStashAssocAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := tab.Get("1-way", "gmean speedup")
	four, _ := tab.Get("4-way", "gmean speedup")
	if one <= 0 || four <= 0 {
		t.Fatalf("speedups %v / %v", one, four)
	}
}

func TestIntervalAblation(t *testing.T) {
	opts := Quick()
	opts.Requests = 1200
	opts.Benchmarks = []string{"gcc"}
	tab, err := IntervalAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	// Smaller T => strictly more dummies for an idle-heavy program.
	d500, _ := tab.Get("T=500", "dummy share")
	d4000, _ := tab.Get("T=4000", "dummy share")
	if d500 <= d4000 {
		t.Errorf("dummy share %.3f at T=500 <= %.3f at T=4000", d500, d4000)
	}
}

func TestMLPAblation(t *testing.T) {
	opts := Quick()
	opts.Requests = 1500
	opts.Benchmarks = []string{"mcf"}
	tab, err := MLPAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	one, _ := tab.Get("MLP=1", "time vs blocking core")
	four, _ := tab.Get("MLP=4", "time vs blocking core")
	if one != 1 {
		t.Errorf("MLP=1 reference should be 1, got %v", one)
	}
	if four > one {
		t.Errorf("more MLP slowed the run down: %v vs %v", four, one)
	}
}

func TestPLBAblation(t *testing.T) {
	opts := Quick()
	opts.Requests = 1500
	opts.Benchmarks = []string{"mcf"}
	tab, err := PLBAblation(opts)
	if err != nil {
		t.Fatal(err)
	}
	small, _ := tab.Get("PLB=16", "PTp share")
	big, _ := tab.Get("PLB=128", "PTp share")
	if small < big {
		t.Errorf("PTp share %.3f with a small PLB < %.3f with a big one", small, big)
	}
}

func TestEnergyExperiment(t *testing.T) {
	opts := Quick()
	opts.Requests = 1500
	opts.Benchmarks = []string{"dee"}
	tab, err := Energy(opts)
	if err != nil {
		t.Fatal(err)
	}
	share, _ := tab.Get("mean", "Baseline DRAM share")
	if share < 0.7 {
		t.Errorf("DRAM share %.3f below the paper's regime", share)
	}
	ir, _ := tab.Get("mean", "IR-ORAM energy")
	if ir >= 1 {
		t.Errorf("IR-ORAM energy %.3f not below Baseline", ir)
	}
}
