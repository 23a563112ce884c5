package metrics

import (
	"encoding/json"
	"testing"
)

// TestHistBucketBoundaries pins the power-of-two bucketing: bucket 0 is
// exactly {0}, bucket k holds [2^(k-1), 2^k - 1], and the boundary values
// land on the correct side.
func TestHistBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      uint64
		bucket int
	}{
		{0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 10, 11}, {1<<11 - 1, 11},
		{1 << 62, 63},
		{1 << 63, 64}, {^uint64(0), 64},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.bucket {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.bucket)
		}
		lo, hi := BucketBounds(c.bucket)
		if c.v < lo || c.v > hi {
			t.Errorf("value %d outside its bucket %d bounds [%d, %d]", c.v, c.bucket, lo, hi)
		}
	}
	// Bounds must tile the uint64 range with no gaps or overlaps.
	_, prevHi := BucketBounds(0)
	for i := 1; i < NumBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi+1 {
			t.Errorf("bucket %d starts at %d, want %d", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Errorf("bucket %d has hi %d < lo %d", i, hi, lo)
		}
		prevHi = hi
	}
	if prevHi != ^uint64(0) {
		t.Errorf("buckets end at %d, want MaxUint64", prevHi)
	}
}

func TestHistObserveAndSnapshot(t *testing.T) {
	var h Hist
	for _, v := range []uint64{0, 1, 1, 5, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 || h.Sum() != 1007 || h.Min() != 0 || h.Max() != 1000 {
		t.Fatalf("summary = count %d sum %d min %d max %d", h.Count(), h.Sum(), h.Min(), h.Max())
	}
	if h.Mean() != 1007.0/5 {
		t.Fatalf("mean = %v", h.Mean())
	}
	s := h.Snapshot()
	var total uint64
	for _, b := range s.Buckets {
		total += b.N
		if b.N == 0 {
			t.Errorf("snapshot contains empty bucket [%d, %d]", b.Lo, b.Hi)
		}
	}
	if total != 5 {
		t.Fatalf("snapshot bucket mass %d, want 5", total)
	}
	// 0 -> bucket 0; the two 1s -> bucket 1; 5 -> [4,7]; 1000 -> [512,1023].
	want := []BucketCount{{0, 0, 1}, {1, 1, 2}, {4, 7, 1}, {512, 1023, 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket %d = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestLinearHist(t *testing.T) {
	h := NewLinearHist(4)
	h.Add(0)
	h.Add(2)
	h.Add(2)
	if h.Total() != 3 {
		t.Fatalf("total = %d", h.Total())
	}
	if got := h.FractionUpTo(1); got != 1.0/3 {
		t.Fatalf("FractionUpTo(1) = %v", got)
	}
	s := h.Snapshot()
	if s.Total != 3 || len(s.Counts) != 4 || s.Counts[2] != 2 {
		t.Fatalf("snapshot = %+v", s)
	}
	// The snapshot must be a copy, not an aliased view.
	h.Add(3)
	if s.Counts[3] != 0 {
		t.Fatal("snapshot aliases live counts")
	}
}

func TestRegistrySnapshotAndDescs(t *testing.T) {
	r := NewRegistry()
	var c uint64 = 7
	var h Hist
	h.Observe(12)
	lh := NewLinearHist(2)
	lh.Add(1)
	r.Counter("test_counter", "events", "a counter", &c)
	r.CounterFunc("test_counter_fn", "events", "a derived counter", func() uint64 { return 21 })
	r.GaugeFunc("test_gauge", "blocks", "a gauge", func() float64 { return 2.5 })
	r.Histogram("test_hist", "cycles", "a histogram", &h)
	r.LinearHistogram("test_linear", "levels", "a linear histogram", lh)

	descs := r.Descs()
	if len(descs) != 5 || r.Len() != 5 {
		t.Fatalf("descs = %+v", descs)
	}
	for i := 1; i < len(descs); i++ {
		if descs[i-1].Name >= descs[i].Name {
			t.Fatalf("descs not sorted: %q before %q", descs[i-1].Name, descs[i].Name)
		}
	}

	s := r.Snapshot()
	if s.Counters["test_counter"] != 7 || s.Counters["test_counter_fn"] != 21 {
		t.Fatalf("counters = %+v", s.Counters)
	}
	if s.Gauges["test_gauge"] != 2.5 {
		t.Fatalf("gauges = %+v", s.Gauges)
	}
	if s.Histograms["test_hist"].Count != 1 {
		t.Fatalf("histograms = %+v", s.Histograms)
	}
	if s.Linear["test_linear"].Total != 1 {
		t.Fatalf("linear = %+v", s.Linear)
	}

	// Registered instruments stay live: later updates appear in the next
	// snapshot, and equal states marshal to identical bytes.
	c = 8
	b1, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatal("equal registry states marshaled differently")
	}
	var round Snapshot
	if err := json.Unmarshal(b1, &round); err != nil {
		t.Fatal(err)
	}
	if round.Counters["test_counter"] != 8 {
		t.Fatalf("round-trip counters = %+v", round.Counters)
	}
}

func TestRegistryRejectsBadNames(t *testing.T) {
	for _, name := range []string{"", "Bad", "has space", "dash-ed"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("name %q accepted", name)
				}
			}()
			var v uint64
			NewRegistry().Counter(name, "u", "h", &v)
		}()
	}
	// Duplicate registration must panic too.
	r := NewRegistry()
	var v uint64
	r.Counter("dup", "u", "h", &v)
	defer func() {
		if recover() == nil {
			t.Error("duplicate name accepted")
		}
	}()
	r.Counter("dup", "u", "h", &v)
}

// histObserveRig returns one histogram observation, the unit of work
// instrumentation adds per path access. The observed values keep growing,
// so a long run walks up through the buckets.
func histObserveRig() func() {
	var h Hist
	return func() { h.Observe(h.Count()) }
}

func BenchmarkHistObserve(b *testing.B) {
	op := histObserveRig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// TestHistObserveZeroAllocs gates BenchmarkHistObserve's op: the buckets
// are a fixed array, so nothing is amortized.
func TestHistObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	if avg := testing.AllocsPerRun(1000, histObserveRig()); avg != 0 {
		t.Errorf("Hist.Observe allocates %.2f times per op, want 0", avg)
	}
}
