package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"iroram/internal/block"
)

func TestPathCounters(t *testing.T) {
	var c PathCounters
	c.Add(block.PathData, 60, 60)
	c.Add(block.PathData, 60, 60)
	c.Add(block.PathPos1, 60, 60)
	c.Add(block.PathDummy, 60, 60)
	if c.Total() != 4 {
		t.Fatalf("total = %d, want 4", c.Total())
	}
	if f := c.Fraction(block.PathData); f != 0.5 {
		t.Errorf("PTd fraction = %v, want 0.5", f)
	}
	if c.BlocksRead != 240 || c.BlocksWrit != 240 {
		t.Errorf("traffic = %d/%d, want 240/240", c.BlocksRead, c.BlocksWrit)
	}
}

func TestPathCountersEmptyFraction(t *testing.T) {
	var c PathCounters
	if c.Fraction(block.PathData) != 0 {
		t.Error("empty counters should report zero fractions")
	}
}

func TestTableAlignmentAndLookup(t *testing.T) {
	tab := NewTable("Fig X", "gcc", "mcf", "mean")
	tab.AddSeries("Baseline", []float64{1, 1, 1})
	tab.AddSeries("IR-ORAM", []float64{1.8, 1.3, 1.57})
	if v, ok := tab.Get("mcf", "IR-ORAM"); !ok || v != 1.3 {
		t.Errorf("Get(mcf, IR-ORAM) = %v, %v", v, ok)
	}
	if _, ok := tab.Get("nope", "IR-ORAM"); ok {
		t.Error("lookup of absent row should fail")
	}
	if _, ok := tab.Get("gcc", "nope"); ok {
		t.Error("lookup of absent series should fail")
	}
	out := tab.String()
	for _, want := range []string{"Fig X", "benchmark", "Baseline", "IR-ORAM", "gcc", "1.570"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered table missing %q:\n%s", want, out)
		}
	}
}

func TestAddSeriesPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	NewTable("t", "a").AddSeries("s", []float64{1, 2})
}

func TestGeoMean(t *testing.T) {
	if g := GeoMean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", g)
	}
	if g := GeoMean([]float64{0, 2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("GeoMean should skip non-positive entries, got %v", g)
	}
	if g := GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v, want 0", g)
	}
}

func TestMeanStdDev(t *testing.T) {
	if m := Mean([]float64{1, 2, 3, 4}); m != 2.5 {
		t.Errorf("Mean = %v", m)
	}
	if s := StdDev([]float64{5, 5, 5}); s != 0 {
		t.Errorf("StdDev of constant = %v", s)
	}
	if Mean(nil) != 0 || StdDev(nil) != 0 {
		t.Error("empty-slice statistics should be 0")
	}
}

func TestGeoMeanBetweenMinMax(t *testing.T) {
	check := func(a, b, c uint16) bool {
		vs := []float64{float64(a) + 1, float64(b) + 1, float64(c) + 1}
		g := GeoMean(vs)
		lo, hi := vs[0], vs[0]
		for _, v := range vs {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}
