package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams for different seeds collided %d/100 times", same)
	}
}

func TestZeroSeedValid(t *testing.T) {
	r := New(0)
	if r.Uint64() == 0 && r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a degenerate stream")
	}
}

func TestUint64nBounds(t *testing.T) {
	r := New(7)
	for _, n := range []uint64{1, 2, 3, 10, 1 << 20, 1<<63 + 12345} {
		for i := 0; i < 200; i++ {
			if v := r.Uint64n(n); v >= n {
				t.Fatalf("Uint64n(%d) = %d out of range", n, v)
			}
		}
	}
}

// mul64 is the 128-bit product Uint64n computed by hand, from four 32-bit
// partial products, before it used bits.Mul64; it is the oracle of
// TestUint64nMatchesMul64Oracle.
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 1<<32 - 1
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	t := a1*b0 + (a0*b0)>>32
	w1 := t&mask + a0*b1
	hi = a1*b1 + t>>32 + w1>>32
	lo = a * b
	return hi, lo
}

// uint64nOracle is Uint64n on mul64. It also returns how many draws it
// rejected.
func uint64nOracle(r *Source, n uint64) (v uint64, rejected int) {
	for {
		hi, lo := mul64(r.Uint64(), n)
		if lo >= n || lo >= uint64(-int64(n))%n {
			return hi, rejected
		}
		rejected++
	}
}

// TestUint64nMatchesMul64Oracle draws 2^20 values from two equally seeded
// streams, one through Uint64n and one through the mul64 oracle, over mixed
// bounds: powers of two, the Scaled leaf count and unified space, and large
// bounds that are not powers of two, which reject about half their draws.
// Every value and the streams' states must agree, and the rejection branch
// must run.
func TestUint64nMatchesMul64Oracle(t *testing.T) {
	bounds := []uint64{1, 2, 3, 10, 1 << 20, 4_472_830, 1<<32 + 15,
		1<<63 - 25, 1 << 63, 1<<63 + 1, 3<<62 + 7, ^uint64(0)}
	got, want := New(11), New(11)
	rejected := 0
	for i := 0; i < 1<<20; i++ {
		n := bounds[i%len(bounds)]
		g := got.Uint64n(n)
		w, rej := uint64nOracle(want, n)
		if g != w {
			t.Fatalf("draw %d: Uint64n(%d) = %d, oracle %d", i, n, g, w)
		}
		rejected += rej
	}
	if got.s != want.s {
		t.Fatal("streams diverged: Uint64n and the oracle consumed different draws")
	}
	if rejected == 0 {
		t.Fatal("no draw took the rejection branch")
	}
}

func TestUint64nPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n == 0")
		}
	}()
	New(1).Uint64n(0)
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	r := New(99)
	const n, draws = 8, 80000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Uint64n(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.05*want {
			t.Errorf("bucket %d: got %d, want about %.0f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	sum := 0.0
	const draws = 50000
	for i := 0; i < draws; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
		sum += f
	}
	if mean := sum / draws; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean = %v, want about 0.5", mean)
	}
}

func TestForkIndependence(t *testing.T) {
	parent := New(11)
	c1 := parent.Fork()
	c2 := parent.Fork()
	same := 0
	for i := 0; i < 100; i++ {
		if c1.Uint64() == c2.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("forked streams collided %d/100 times", same)
	}
}

// TestFloat64Threshold checks the biased coin the tests draw as
// Float64() < p: it comes up true with probability p.
func TestFloat64Threshold(t *testing.T) {
	r := New(13)
	const draws = 100000
	hits := 0
	for i := 0; i < draws; i++ {
		if r.Float64() < 0.3 {
			hits++
		}
	}
	if p := float64(hits) / draws; math.Abs(p-0.3) > 0.01 {
		t.Errorf("Float64() < 0.3 rate = %v", p)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkUint64n(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64n(1 << 24)
	}
}
