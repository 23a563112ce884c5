package trace

import "fmt"

// Table II of the paper: the evaluated benchmarks with their LLC read/write
// MPKI. The pattern and working-set assignments encode each program's
// qualitative memory behaviour:
//
//   - mcf: pointer-chasing over a huge working set, read dominated — the
//     PLB/tree-top worst case (drives the Rho and LLC-D regressions);
//   - lbm/bwa/rom/dee: streaming stores over large grids;
//   - xz: mixed read/write with poor locality (compression dictionaries);
//   - gcc/xal/ima: small working sets, low intensity — mostly dummy paths;
//   - bla/str/fre (PARSEC): moderate read-mostly streams.
var specs = []Spec{
	{Name: "gcc", ReadMPKI: 0.1, WriteMPKI: 0.3, Pattern: Uniform,
		ColdBlocks: 1 << 20, HotBlocks: 1 << 14, ColdFraction: 0.25,
		ConflictBlocks: 64, ConflictFraction: 0.3, IdleEvery: 60, IdleInstr: 200_000,
		SegmentBlocks: 512, BurstLen: 2},
	{Name: "mcf", ReadMPKI: 19.5, WriteMPKI: 0.1, Pattern: Chase,
		ColdBlocks: 1 << 22, HotBlocks: 1 << 12, ColdFraction: 0.7,
		IdleEvery: 250, IdleInstr: 60_000},
	{Name: "xz", ReadMPKI: 24.9, WriteMPKI: 29.6, Pattern: Uniform,
		ColdBlocks: 1 << 21, HotBlocks: 1 << 14, ColdFraction: 0.6,
		ConflictBlocks: 48, ConflictFraction: 0.15, IdleEvery: 300, IdleInstr: 50_000,
		SegmentBlocks: 1024, BurstLen: 2},
	{Name: "xal", ReadMPKI: 0.05, WriteMPKI: 0.1, Pattern: Uniform,
		ColdBlocks: 1 << 19, HotBlocks: 1 << 13, ColdFraction: 0.25,
		ConflictBlocks: 64, ConflictFraction: 0.35, IdleEvery: 60, IdleInstr: 220_000,
		SegmentBlocks: 512, BurstLen: 2},
	{Name: "dee", ReadMPKI: 0.0, WriteMPKI: 5.7, Pattern: Uniform,
		ColdBlocks: 1 << 21, HotBlocks: 1 << 15, ColdFraction: 0.4,
		ConflictBlocks: 96, ConflictFraction: 0.3, IdleEvery: 150, IdleInstr: 90_000,
		SegmentBlocks: 512, BurstLen: 2},
	{Name: "bwa", ReadMPKI: 0.0, WriteMPKI: 20.7, Pattern: Stream,
		ColdBlocks: 1 << 22, HotBlocks: 1 << 12, ColdFraction: 0.6,
		IdleEvery: 250, IdleInstr: 60_000},
	{Name: "lbm", ReadMPKI: 0.0, WriteMPKI: 45.3, Pattern: Stream,
		ColdBlocks: 1 << 22, HotBlocks: 0, ColdFraction: 0.8,
		IdleEvery: 400, IdleInstr: 40_000},
	{Name: "cam", ReadMPKI: 0.01, WriteMPKI: 8.8, Pattern: Strided,
		ColdBlocks: 1 << 21, HotBlocks: 1 << 12, ColdFraction: 0.5, Stride: 16,
		IdleEvery: 200, IdleInstr: 80_000},
	{Name: "ima", ReadMPKI: 0.3, WriteMPKI: 2.9, Pattern: Uniform,
		ColdBlocks: 1 << 20, HotBlocks: 1 << 14, ColdFraction: 0.4,
		ConflictBlocks: 64, ConflictFraction: 0.25, IdleEvery: 120, IdleInstr: 120_000,
		SegmentBlocks: 512, BurstLen: 3},
	{Name: "rom", ReadMPKI: 0.02, WriteMPKI: 23.0, Pattern: Stream,
		ColdBlocks: 1 << 22, HotBlocks: 1 << 12, ColdFraction: 0.7,
		IdleEvery: 250, IdleInstr: 60_000},
	{Name: "bla", ReadMPKI: 2.6, WriteMPKI: 0.4, Pattern: Uniform,
		ColdBlocks: 1 << 20, HotBlocks: 1 << 15, ColdFraction: 0.4,
		ConflictBlocks: 64, ConflictFraction: 0.3, IdleEvery: 120, IdleInstr: 110_000,
		SegmentBlocks: 512, BurstLen: 2},
	{Name: "str", ReadMPKI: 2.7, WriteMPKI: 0.5, Pattern: Chase,
		ColdBlocks: 1 << 21, HotBlocks: 1 << 15, ColdFraction: 0.5,
		ConflictBlocks: 48, ConflictFraction: 0.2, IdleEvery: 150, IdleInstr: 100_000},
	{Name: "fre", ReadMPKI: 2.1, WriteMPKI: 0.4, Pattern: Uniform,
		ColdBlocks: 1 << 20, HotBlocks: 1 << 15, ColdFraction: 0.4,
		ConflictBlocks: 64, ConflictFraction: 0.25, IdleEvery: 120, IdleInstr: 110_000,
		SegmentBlocks: 512, BurstLen: 2},
}

// BenchmarkNames returns the Table II benchmark names in paper order.
func BenchmarkNames() []string {
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// SpecFor returns the Spec of a Table II benchmark.
func SpecFor(name string) (Spec, error) {
	for _, s := range specs {
		if s.Name == name {
			return s, nil
		}
	}
	return Spec{}, fmt.Errorf("trace: unknown benchmark %q", name)
}

// Benchmark returns the synthetic generator for a Table II benchmark over a
// protected space of universe blocks.
func Benchmark(name string, universe, seed uint64) (*Synth, error) {
	spec, err := SpecFor(name)
	if err != nil {
		return nil, err
	}
	return NewSynth(spec, universe, seed), nil
}

// MustBenchmark is Benchmark for known-good names; it panics otherwise.
func MustBenchmark(name string, universe, seed uint64) *Synth {
	g, err := Benchmark(name, universe, seed)
	if err != nil {
		panic(err)
	}
	return g
}

// Named returns the generator for a workload name: "mix" (PaperMix),
// "random" (uniform, half writes), or a Table II benchmark (see
// BenchmarkNames), over a protected space of universe blocks.
func Named(name string, universe, seed uint64) (Generator, error) {
	switch name {
	case "mix":
		return PaperMix(universe, seed), nil
	case "random":
		return Random(universe, 0.5, seed), nil
	}
	g, err := Benchmark(name, universe, seed)
	if err != nil {
		return nil, err
	}
	return g, nil
}

// PaperMix returns the 3-benchmark mix used for the "mix" bar of Fig 10
// (gcc + mcf + lbm: one low-intensity, one read-chasing, one write-stream).
func PaperMix(universe, seed uint64) *Mix {
	return NewMix("mix",
		MustBenchmark("gcc", universe, seed),
		MustBenchmark("mcf", universe, seed+1),
		MustBenchmark("lbm", universe, seed+2),
	)
}

// UtilizationTrace reproduces the Fig 3 methodology at a chosen scale: a mix
// of benchmark accesses followed by a random tail, in the paper's
// 3.7B : 0.3B proportion.
func UtilizationTrace(universe uint64, total int, seed uint64) *Concat {
	benchPart := total * 37 / 40
	return NewConcat("fig3-mix",
		[]Generator{
			PaperMix(universe, seed),
			Random(universe, 0.5, seed+99),
		},
		[]int{benchPart, total - benchPart},
	)
}
