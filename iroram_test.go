package iroram

import "testing"

func TestPublicQuickstart(t *testing.T) {
	cfg := TinyConfig().WithScheme(IROram())
	res, err := RunBenchmark(cfg, "gcc", 1500)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles == 0 || res.ORAM.ServedRequests == 0 {
		t.Fatalf("empty result %+v", res)
	}
}

func TestPublicSchemeSpeedup(t *testing.T) {
	base, err := RunBenchmark(TinyConfig().WithScheme(Baseline()), "xz", 2000)
	if err != nil {
		t.Fatal(err)
	}
	ir, err := RunBenchmark(TinyConfig().WithScheme(IROram()), "xz", 2000)
	if err != nil {
		t.Fatal(err)
	}
	if ir.Cycles >= base.Cycles {
		t.Errorf("IR-ORAM %d cycles >= Baseline %d", ir.Cycles, base.Cycles)
	}
}

func TestPublicUnknownBenchmark(t *testing.T) {
	if _, err := RunBenchmark(TinyConfig(), "nope", 10); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestPublicExperimentDispatch(t *testing.T) {
	opts := QuickExperiments()
	opts.Requests = 800
	opts.Benchmarks = []string{"gcc"}
	tab, err := Experiment("fig7", opts)
	if err != nil {
		t.Fatal(err)
	}
	if tab.Title == "" || len(tab.Rows) == 0 {
		t.Fatal("empty table")
	}
	if _, err := Experiment("fig99", opts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestPublicAllFigureNamesDispatch(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every figure")
	}
	opts := QuickExperiments()
	opts.Requests = 600
	opts.Benchmarks = []string{"gcc", "lbm"}
	for _, name := range FigureNames {
		if _, err := Experiment(name, opts); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestPublicZSearch(t *testing.T) {
	opts := QuickExperiments()
	opts.Requests = 800
	prof, desc, err := SearchZProfile(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(prof) != opts.Base.ORAM.Levels || desc == "" {
		t.Fatalf("profile %v desc %q", prof, desc)
	}
}

func TestPublicBenchmarksList(t *testing.T) {
	if len(Benchmarks()) != 13 {
		t.Fatalf("got %d benchmarks", len(Benchmarks()))
	}
}
