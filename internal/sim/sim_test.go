package sim

import (
	"bytes"
	"encoding/json"
	"reflect"
	"runtime"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/posmap"
	"iroram/internal/rng"
	"iroram/internal/trace"
)

func tinySystem(t *testing.T, sch config.Scheme) *System {
	t.Helper()
	s, err := New(config.Tiny().WithScheme(sch))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func universe(s *System) uint64 { return s.cfg.ORAM.DataBlocks() }

// TestBuildFootprint bounds the heap one Tiny System build allocates, for
// every Fig 10 scheme and Ring, at 2 MB. The tree, PosMap and caches take
// about 1 MB; a per-System structure sized by the geometry rather than the
// workload (a per-leaf memo, say) shows here first, and an experiment
// sweep pays it once per cell.
func TestBuildFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation sizes differ under -race instrumentation")
	}
	const limit = 2 << 20
	for _, sch := range append(config.AllSchemes(), config.RingScheme()) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		s, err := New(config.Tiny().WithScheme(sch))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", sch.Name, err)
		}
		runtime.KeepAlive(s)
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s: one Tiny build allocated %.2f MB, want under %.0f MB",
				sch.Name, float64(got)/(1<<20), float64(limit)/(1<<20))
		}
	}
}

// TestScaledBuildTransient bounds the heap one Scaled System build
// allocates and drops: at most the tree load's scratch, its scatter buffer
// (one 8-byte slot word per block of the unified space, 35.8 MB) and fill
// counts (one byte per bucket of the tree, 2.1 MB), plus 1 MB of slack
// beyond what the System keeps (about 102.6 MB). About 0.01 MB of other
// scratch comes and goes today; a transient structure that grows with the
// geometry shows here first, and a default-scale sweep pays it once per
// cell.
func TestScaledBuildTransient(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("builds a Scaled System; allocation sizes differ under -race instrumentation")
	}
	cfg := config.Scaled()
	scratch := 8*posmap.New(cfg.ORAM, rng.New(1)).Total() + uint64(1)<<cfg.ORAM.Levels
	const slack = 1 << 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(s)
	total := after.TotalAlloc - before.TotalAlloc
	kept := after.HeapAlloc - before.HeapAlloc
	if total > kept+scratch+slack {
		t.Errorf("one Scaled build allocated %.2f MB and kept %.2f MB; want at most the load's %.2f MB of scratch and %.0f MB more dropped",
			float64(total)/1e6, float64(kept)/1e6, float64(scratch)/1e6, float64(slack)/1e6)
	}
}

func TestRunBasic(t *testing.T) {
	s := tinySystem(t, config.Baseline())
	gen := trace.Random(universe(s), 0.3, 1)
	res := s.Run(gen, 500)
	if res.Requests != 500 {
		t.Fatalf("consumed %d requests", res.Requests)
	}
	if res.Cycles == 0 || res.Instructions == 0 {
		t.Fatal("no time or instructions simulated")
	}
	if res.ReadMisses == 0 {
		t.Fatal("random trace produced no LLC read misses")
	}
	if res.ORAM.ServedRequests == 0 {
		t.Fatal("ORAM never engaged")
	}
	if err := s.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestHotSetHitsLLC(t *testing.T) {
	s := tinySystem(t, config.Baseline())
	// Working set of 64 blocks fits easily in the tiny 1K-line LLC.
	gen := trace.NewSynth(trace.Spec{
		Name: "hot", ReadMPKI: 10, WriteMPKI: 0,
		Pattern: trace.Uniform, ColdBlocks: 64, ColdFraction: 1,
	}, universe(s), 3)
	res := s.Run(gen, 2000)
	if res.LLC.MissRate() > 0.2 {
		t.Errorf("hot working set missed %.2f of accesses", res.LLC.MissRate())
	}
}

func TestDirtyEvictionsPostWrites(t *testing.T) {
	s := tinySystem(t, config.Baseline())
	// Streaming writes over a region much larger than the LLC.
	gen := trace.NewSynth(trace.Spec{
		Name: "wstream", ReadMPKI: 0, WriteMPKI: 40,
		Pattern: trace.Stream, ColdBlocks: 1 << 14, ColdFraction: 1,
	}, universe(s), 3)
	res := s.Run(gen, 4000)
	if res.DirtyWBs == 0 {
		t.Fatal("write streaming produced no dirty write-backs")
	}
	if err := s.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestLLCDCleanEvictionsAlsoWriteBack(t *testing.T) {
	run := func(sch config.Scheme) Result {
		s := tinySystem(t, sch)
		gen := trace.NewSynth(trace.Spec{
			Name: "rstream", ReadMPKI: 40, WriteMPKI: 0,
			Pattern: trace.Stream, ColdBlocks: 1 << 14, ColdFraction: 1,
		}, universe(s), 3)
		return s.Run(gen, 4000)
	}
	normal := run(config.Baseline())
	llcd := run(config.LLCDScheme())
	if llcd.DirtyWBs <= normal.DirtyWBs {
		t.Errorf("LLC-D write-backs %d not above baseline %d for a read stream",
			llcd.DirtyWBs, normal.DirtyWBs)
	}
}

// TestLLCDReadStreamSlowdown reproduces the paper's key LLC-D result: a
// read-intensive, low-locality workload (mcf-like) gets substantially
// slower under delayed remapping.
func TestLLCDReadStreamSlowdown(t *testing.T) {
	run := func(sch config.Scheme) uint64 {
		s := tinySystem(t, sch)
		gen := trace.NewSynth(trace.Spec{
			Name: "mcf-ish", ReadMPKI: 20, WriteMPKI: 0.1,
			Pattern: trace.Chase, ColdBlocks: 1 << 14, ColdFraction: 0.9,
		}, universe(s), 7)
		return s.Run(gen, 2500).Cycles
	}
	base := run(config.Baseline())
	llcd := run(config.LLCDScheme())
	if float64(llcd) < 1.1*float64(base) {
		t.Errorf("LLC-D %d cycles vs baseline %d: expected clear slowdown", llcd, base)
	}
}

// TestSnapshots steps one System in Run slices, as Fig 3 and Fig 13 do:
// every Result carries one utilization per level, in [0, 1], taken when
// the Result was captured.
func TestSnapshots(t *testing.T) {
	s := tinySystem(t, config.Baseline())
	gen := trace.Random(universe(s), 0.5, 5)
	snaps := []Result{s.Result(gen.Name())}
	for i := 0; i < 4; i++ {
		snaps = append(snaps, s.Run(gen, 250))
	}
	for i, r := range snaps {
		if r.Requests != uint64(250*i) {
			t.Errorf("snapshot %d after %d requests, want %d", i, r.Requests, 250*i)
		}
		if len(r.Utilization) != s.cfg.ORAM.Levels {
			t.Fatalf("snapshot %d has %d levels", i, len(r.Utilization))
		}
		for l, u := range r.Utilization {
			if u < 0 || u > 1 {
				t.Errorf("snapshot %d level %d: %v", i, l, u)
			}
		}
	}
	if got, want := snaps[4].Utilization, s.Controller().Utilization(); !reflect.DeepEqual(got, want) {
		t.Errorf("last snapshot %v, controller now %v", got, want)
	}
	if reflect.DeepEqual(snaps[0].Utilization, snaps[4].Utilization) {
		t.Error("utilization did not move over 1,000 requests")
	}
}

// TestResultDetachedFromSystem checks that a Result taken mid-run does not
// change as its System runs on: the per-level histograms, the utilization
// and the epoch series it holds stay as they were at capture.
func TestResultDetachedFromSystem(t *testing.T) {
	s := tinySystem(t, config.Baseline())
	s.SetEpochInterval(100)
	gen := trace.MustBenchmark("mcf", universe(s), 1)
	res := s.Run(gen, 1000)
	before, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	hits := res.ORAM.HitLevels.Total()
	s.Run(gen, 1000)
	if got := res.ORAM.HitLevels.Total(); got != hits {
		t.Errorf("HitLevels total %d at capture, %d after 1,000 more requests", hits, got)
	}
	after, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("a captured Result changed while its System ran on")
	}
}

func TestDWBSchemeRuns(t *testing.T) {
	s := tinySystem(t, config.IRDWBScheme())
	// Write bursts then idle gaps: dummy slots should find dirty LRU lines.
	gen := trace.NewSynth(trace.Spec{
		Name: "bursty", ReadMPKI: 0.5, WriteMPKI: 2,
		Pattern: trace.Stream, ColdBlocks: 1 << 14, ColdFraction: 0.8,
		IdleEvery: 40, IdleInstr: 100_000,
	}, universe(s), 9)
	res := s.Run(gen, 3000)
	if res.ORAM.Paths.Paths[block.PathDWB] == 0 {
		t.Error("IR-DWB never converted a dummy slot")
	}
	if res.ORAM.DWBCompleted == 0 {
		t.Error("IR-DWB never completed an early write-back")
	}
	if err := s.ctrl.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestDWBReducesDemandWrites: early write-backs clean LLC lines, so fewer
// evictions are dirty when a demand miss needs the slot.
func TestDWBReducesDemandWrites(t *testing.T) {
	run := func(sch config.Scheme) Result {
		s := tinySystem(t, sch)
		gen := trace.NewSynth(trace.Spec{
			Name: "bursty", ReadMPKI: 0.5, WriteMPKI: 2,
			Pattern: trace.Stream, ColdBlocks: 1 << 14, ColdFraction: 0.8,
			IdleEvery: 40, IdleInstr: 100_000,
		}, universe(s), 9)
		return s.Run(gen, 3000)
	}
	base := run(config.Baseline())
	dwb := run(config.IRDWBScheme())
	if dwb.DirtyWBs >= base.DirtyWBs {
		t.Errorf("IR-DWB dirty write-backs %d not below baseline %d", dwb.DirtyWBs, base.DirtyWBs)
	}
}

func TestAllSchemesRunAllBenchmarks(t *testing.T) {
	if testing.Short() {
		t.Skip("matrix run")
	}
	for _, sch := range config.AllSchemes() {
		for _, bench := range []string{"gcc", "mcf", "lbm"} {
			s := tinySystem(t, sch)
			gen := trace.MustBenchmark(bench, universe(s), 11)
			res := s.Run(gen, 1200)
			if res.ORAM.NonUniformIssues != 0 {
				t.Errorf("%s/%s: %d non-uniform issues", sch.Name, bench, res.ORAM.NonUniformIssues)
			}
			if err := s.ctrl.CheckInvariants(); err != nil {
				t.Errorf("%s/%s: %v", sch.Name, bench, err)
			}
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() Result {
		s := tinySystem(t, config.IROramScheme())
		gen := trace.MustBenchmark("xz", universe(s), 2)
		return s.Run(gen, 1500)
	}
	a, b := run(), run()
	if a.Cycles != b.Cycles || a.ORAM.Paths != b.ORAM.Paths {
		t.Fatal("simulation is not deterministic")
	}
}

func TestResultMetrics(t *testing.T) {
	r := Result{Instructions: 2000, ReadMisses: 10, DirtyWBs: 4, Cycles: 1000}
	if r.ReadMPKI() != 5 {
		t.Errorf("ReadMPKI = %v", r.ReadMPKI())
	}
	if r.WriteMPKI() != 2 {
		t.Errorf("WriteMPKI = %v", r.WriteMPKI())
	}
	if r.IPC() != 2 {
		t.Errorf("IPC = %v", r.IPC())
	}
	var zero Result
	if zero.ReadMPKI() != 0 || zero.WriteMPKI() != 0 || zero.IPC() != 0 {
		t.Error("zero result should report zero metrics")
	}
}

func TestBadConfigRejected(t *testing.T) {
	cfg := config.Tiny()
	cfg.ORAM.Levels = 1
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestExtendedSchemesRun(t *testing.T) {
	// The schemes beyond the Fig 10 list: Ring, Ring+IR-Alloc, and the
	// future-work proactive-remapping stack. Everything must serve all
	// requests, keep the issue-gap audit clean and pass invariants.
	for _, sch := range []config.Scheme{
		config.RingScheme(), config.RingIRAlloc(),
		config.IRStashAllocOnLLCD(), config.IROramOnLLCD(),
	} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			s := tinySystem(t, sch)
			gen := trace.MustBenchmark("bla", universe(s), 21)
			res := s.Run(gen, 1500)
			if res.ORAM.ServedRequests == 0 {
				t.Fatal("nothing served")
			}
			if res.ORAM.NonUniformIssues != 0 {
				t.Errorf("%d issue-gap violations", res.ORAM.NonUniformIssues)
			}
			if err := s.Controller().CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestContextSwitchMidRun(t *testing.T) {
	s := tinySystem(t, config.IRStashScheme())
	gen := trace.MustBenchmark("gcc", universe(s), 5)
	s.Run(gen, 800)
	before := s.Now()
	done := s.Controller().ContextSwitch(before)
	if done <= before {
		t.Fatal("context switch free")
	}
	// Resume and keep going.
	res := s.Run(gen, 800)
	if res.ORAM.ServedRequests == 0 {
		t.Fatal("no service after resume")
	}
	if err := s.Controller().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
