package trace

import (
	"bytes"
	"testing"
	"testing/quick"
)

const testUniverse = 1 << 23

func TestSynthDeterminism(t *testing.T) {
	a := MustBenchmark("mcf", testUniverse, 7)
	b := MustBenchmark("mcf", testUniverse, 7)
	for i := 0; i < 1000; i++ {
		ra, _ := a.Next()
		rb, _ := b.Next()
		if ra != rb {
			t.Fatalf("record %d diverged: %+v vs %+v", i, ra, rb)
		}
	}
}

func TestSynthAddressesInUniverse(t *testing.T) {
	for _, name := range BenchmarkNames() {
		g := MustBenchmark(name, testUniverse, 3)
		for i := 0; i < 2000; i++ {
			r, ok := g.Next()
			if !ok {
				t.Fatalf("%s: synthetic trace exhausted", name)
			}
			if r.Addr >= testUniverse {
				t.Fatalf("%s: addr %d outside universe", name, r.Addr)
			}
		}
	}
}

func TestWriteFractionMatchesSpec(t *testing.T) {
	for _, name := range []string{"lbm", "mcf", "xz"} {
		spec, err := SpecFor(name)
		if err != nil {
			t.Fatal(err)
		}
		wantFrac := spec.WriteMPKI / (spec.ReadMPKI + spec.WriteMPKI)
		g := MustBenchmark(name, testUniverse, 5)
		writes := 0
		const n = 20000
		for i := 0; i < n; i++ {
			r, _ := g.Next()
			if r.Write {
				writes++
			}
		}
		got := float64(writes) / n
		if got < wantFrac-0.03 || got > wantFrac+0.03 {
			t.Errorf("%s: write fraction %.3f, want about %.3f", name, got, wantFrac)
		}
	}
}

func TestGapEncodesIntensity(t *testing.T) {
	// lbm (45.3 total MPKI) must have much smaller gaps than gcc (0.4).
	lbm, _ := MustBenchmark("lbm", testUniverse, 1).Next()
	gcc, _ := MustBenchmark("gcc", testUniverse, 1).Next()
	if gcc.GapInstr < 10*lbm.GapInstr {
		t.Errorf("lbm gap %d vs gcc gap %d: intensity ordering wrong",
			lbm.GapInstr, gcc.GapInstr)
	}
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := Benchmark("nope", testUniverse, 1); err == nil {
		t.Fatal("expected error for unknown benchmark")
	}
}

func TestNamedResolvesEveryWorkload(t *testing.T) {
	for _, name := range append([]string{"mix", "random"}, BenchmarkNames()...) {
		g, err := Named(name, testUniverse, 1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Name() != name {
			t.Errorf("Named(%q) built generator %q", name, g.Name())
		}
	}
	if g, err := Named("nope", testUniverse, 1); err == nil || g != nil {
		t.Fatalf("unknown workload: generator %v, error %v; want nil and an error", g, err)
	}
}

func TestBenchmarkNamesMatchTable2(t *testing.T) {
	names := BenchmarkNames()
	if len(names) != 13 {
		t.Fatalf("got %d benchmarks, Table II has 13", len(names))
	}
	want := map[string]bool{"gcc": true, "mcf": true, "xz": true, "xal": true,
		"dee": true, "bwa": true, "lbm": true, "cam": true, "ima": true,
		"rom": true, "bla": true, "str": true, "fre": true}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected benchmark %q", n)
		}
	}
}

func TestRandomCoversUniverse(t *testing.T) {
	g := Random(1024, 0.5, 9)
	seen := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		r, _ := g.Next()
		if r.Addr >= 1024 {
			t.Fatalf("addr %d out of range", r.Addr)
		}
		seen[r.Addr] = true
	}
	if len(seen) < 1000 {
		t.Errorf("random trace touched only %d/1024 blocks", len(seen))
	}
}

func TestSliceGenerator(t *testing.T) {
	reqs := []Request{{Addr: 1}, {Addr: 2, Write: true}, {Addr: 3}}
	s := NewSlice("fixed", reqs)
	got := Collect(s, 10)
	if len(got) != 3 {
		t.Fatalf("collected %d, want 3", len(got))
	}
	if _, ok := s.Next(); ok {
		t.Error("exhausted slice should report ok=false")
	}
	s.Reset()
	if r, ok := s.Next(); !ok || r.Addr != 1 {
		t.Error("Reset did not rewind")
	}
}

func TestMixRoundRobin(t *testing.T) {
	a := NewSlice("a", []Request{{Addr: 1}, {Addr: 2}})
	b := NewSlice("b", []Request{{Addr: 10}})
	m := NewMix("m", a, b)
	got := Collect(m, 10)
	want := []uint64{1, 10, 2}
	if len(got) != len(want) {
		t.Fatalf("collected %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Addr != w {
			t.Errorf("record %d: addr %d, want %d", i, got[i].Addr, w)
		}
	}
}

func TestConcatOrderAndLimits(t *testing.T) {
	a := NewSlice("a", []Request{{Addr: 1}, {Addr: 2}, {Addr: 3}})
	b := NewSlice("b", []Request{{Addr: 10}, {Addr: 11}})
	c := NewConcat("c", []Generator{a, b}, []int{2, 0})
	got := Collect(c, 10)
	want := []uint64{1, 2, 10, 11}
	if len(got) != len(want) {
		t.Fatalf("collected %d, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Addr != w {
			t.Errorf("record %d: addr %d, want %d", i, got[i].Addr, w)
		}
	}
}

func TestUtilizationTraceProportions(t *testing.T) {
	g := UtilizationTrace(testUniverse, 4000, 1)
	reqs := Collect(g, 5000)
	if len(reqs) != 4000 {
		t.Fatalf("collected %d, want 4000", len(reqs))
	}
}

func TestFileRoundTrip(t *testing.T) {
	reqs := Collect(MustBenchmark("xz", testUniverse, 11), 500)
	var buf bytes.Buffer
	if err := Write(&buf, "xz", reqs); err != nil {
		t.Fatal(err)
	}
	name, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if name != "xz" {
		t.Errorf("name %q, want xz", name)
	}
	if len(got) != len(reqs) {
		t.Fatalf("got %d records, want %d", len(got), len(reqs))
	}
	for i := range got {
		if got[i] != reqs[i] {
			t.Fatalf("record %d: %+v != %+v", i, got[i], reqs[i])
		}
	}
}

func TestFileRoundTripProperty(t *testing.T) {
	check := func(addrs []uint32, seed uint64) bool {
		reqs := make([]Request, len(addrs))
		for i, a := range addrs {
			reqs[i] = Request{Addr: uint64(a), Write: a%3 == 0, GapInstr: a % 1000}
		}
		var buf bytes.Buffer
		if err := Write(&buf, "prop", reqs); err != nil {
			return false
		}
		name, got, err := Read(&buf)
		if err != nil || name != "prop" || len(got) != len(reqs) {
			return false
		}
		for i := range got {
			if got[i] != reqs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("nope"),
		[]byte("IRTR\x02"),               // bad version
		append([]byte("IRTR\x01"), 0xff), // truncated varint
	}
	for i, c := range cases {
		if _, _, err := Read(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestReadRejectsTruncatedRecords(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "t", []Request{{Addr: 5}, {Addr: 6}}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	if _, _, err := Read(bytes.NewReader(full[:len(full)-1])); err == nil {
		t.Error("expected error for truncated file")
	}
}
