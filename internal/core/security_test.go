package core

// Security regression tests for the obliviousness argument of Section IV-E:
//
//  1. every observed path (leaf) is drawn uniformly, independent of the
//     workload's addresses — the Path ORAM property IR-ORAM must preserve;
//  2. the sequence of observed leaves carries no mutual information about
//     which of two very different workloads ran (coarse distribution test);
//  3. the issue-gap audit holds for every scheme: the controller is never
//     observably idle beyond the timing-protection interval.

import (
	"math"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/rng"
)

// leafTrace runs a workload and returns the externally visible path trace:
// the leaf of every path access, read from the whole-access spans of an
// every-access flight recorder. It fails unless the recorder kept every
// event and saw one access span per path access counted in Stats, so a
// path access that stops emitting its span cannot shrink the trace
// unnoticed.
func leafTrace(t *testing.T, sch config.Scheme, addrs []block.ID) []block.Leaf {
	t.Helper()
	cfg := config.Tiny().WithScheme(sch)
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	fl := flight.New(1<<20, 1)
	c.AttachFlight(fl)
	is := NewIssuer(c, nil)
	now := uint64(0)
	for _, a := range addrs {
		now = is.ReadBlock(now+500, a)
	}
	tr := fl.Snapshot()
	if tr.Dropped != 0 {
		t.Fatalf("ring dropped %d events; enlarge the test capacity", tr.Dropped)
	}
	var leaves []block.Leaf
	for _, e := range tr.Events {
		if e.Kind == flight.KindAccess {
			leaves = append(leaves, block.Leaf(e.Arg))
		}
	}
	if got, want := uint64(len(leaves)), c.Stats().Paths.Total(); got != want {
		t.Fatalf("%d access spans for %d path accesses", got, want)
	}
	return leaves
}

// binCounts folds leaves into 8 equal bins.
func binCounts(leaves []block.Leaf, leafCount uint64) []float64 {
	counts := make([]float64, 8)
	per := leafCount / 8
	for _, l := range leaves {
		counts[uint64(l)/per]++
	}
	return counts
}

func TestObservedPathsUniform(t *testing.T) {
	leafCount := config.Tiny().ORAM.LeafCount()
	for _, sch := range []config.Scheme{config.Baseline(), config.IROramScheme()} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			r := rng.New(7)
			addrs := make([]block.ID, 600)
			for i := range addrs {
				addrs[i] = block.ID(r.Uint64n(1 << 12))
			}
			leaves := leafTrace(t, sch, addrs)
			if len(leaves) < 500 {
				t.Fatalf("only %d paths observed", len(leaves))
			}
			counts := binCounts(leaves, leafCount)
			want := float64(len(leaves)) / 8
			for b, c := range counts {
				if math.Abs(c-want) > 0.25*want+8 {
					t.Errorf("leaf bin %d: %v paths, want about %v", b, c, want)
				}
			}
		})
	}
}

// TestTraceIndependentOfWorkload compares the observed leaf distributions of
// a sequential scan and a single-block hammer: the external trace must look
// the same (uniform) for both, even though the address streams could not be
// more different.
func TestTraceIndependentOfWorkload(t *testing.T) {
	leafCount := config.Tiny().ORAM.LeafCount()

	seq := make([]block.ID, 600)
	for i := range seq {
		seq[i] = block.ID(i * 16) // distinct PosMap blocks, streaming
	}
	hammer := make([]block.ID, 600)
	for i := range hammer {
		hammer[i] = block.ID(uint64(i%4) * 5000)
	}

	a := binCounts(leafTrace(t, config.Baseline(), seq), leafCount)
	b := binCounts(leafTrace(t, config.Baseline(), hammer), leafCount)
	norm := func(c []float64) []float64 {
		sum := 0.0
		for _, v := range c {
			sum += v
		}
		out := make([]float64, len(c))
		for i, v := range c {
			out[i] = v / sum
		}
		return out
	}
	na, nb := norm(a), norm(b)
	for i := range na {
		if math.Abs(na[i]-nb[i]) > 0.08 {
			t.Errorf("bin %d: seq %.3f vs hammer %.3f — trace shape depends on workload",
				i, na[i], nb[i])
		}
	}
}

// TestRemappedLeafNeverReused checks the freshness property: after a block
// is accessed via a path, its next access uses an independently drawn leaf
// (we assert it is not systematically identical, which would leak reuse).
func TestRemappedLeafNeverReused(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	const trials = 200
	for i := 0; i < trials; i++ {
		a := block.ID(i * 31)
		before := c.pm.Leaf(a)
		c.pm.Remap(a)
		if c.pm.Leaf(a) == before {
			same++
		}
	}
	// P(same leaf) = 1/leaves = 1/8192; a handful of collisions in 200
	// draws would already be suspicious.
	if same > 2 {
		t.Errorf("remap kept the same leaf %d/%d times", same, trials)
	}
}

// TestIssueGapAuditRhoAndDWB extends the audit to the remaining schemes.
func TestIssueGapAuditRhoAndDWB(t *testing.T) {
	for _, sch := range []config.Scheme{config.RhoScheme(), config.IRDWBScheme()} {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			cfg := config.Tiny().WithScheme(sch)
			mem := dram.New(cfg.DRAM)
			c, err := NewController(cfg, mem, rng.New(1))
			if err != nil {
				t.Fatal(err)
			}
			var src DWBSource
			if sch.DWB {
				src = newFakeDWB(10, 20, 30, 40)
			}
			is := NewIssuer(c, src)
			r := rng.New(5)
			now := uint64(0)
			for i := 0; i < 250; i++ {
				a := block.ID(r.Uint64n(c.o.DataBlocks()))
				if r.Float64() < 0.25 {
					now = is.PostWrite(now+uint64(r.Intn(4000)), a)
				} else {
					now = is.ReadBlock(now+uint64(r.Intn(4000)), a)
				}
			}
			if c.st.NonUniformIssues != 0 {
				t.Errorf("%d of %d issues broke the idle bound",
					c.st.NonUniformIssues, c.st.PathsIssued)
			}
		})
	}
}

// TestPathTypeStructurallyIdentical verifies that every path type generates
// the same DRAM traffic shape: equal block counts for equal leaves, so an
// attacker cannot classify path types by size.
func TestPathTypeStructurallyIdentical(t *testing.T) {
	cfg := config.Tiny().WithScheme(config.Baseline())
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	is := NewIssuer(c, nil)
	// Force a mix of path types.
	now := is.ReadBlock(0, 1234)              // PTp + PTd
	is.AdvanceTo(now + 20*cfg.ORAM.IntervalT) // PTm dummies
	st := c.Stats()
	perPath := float64(st.Paths.BlocksRead) / float64(st.Paths.Total())
	want := float64(cfg.ORAM.Z.BlocksPerPath(cfg.ORAM.TopLevels))
	if perPath != want {
		t.Errorf("blocks per path %.2f, want %.2f for every type", perPath, want)
	}
}
