package core

import (
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/flight"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// The controller's hot paths as warmed rigs. Each rig returns one op; the
// same op is timed by its BenchmarkX and gated at 0 allocs/op by its
// TestXZeroAllocs, so `go test ./...` enforces the zero-allocation contract
// that `go test -bench` measures.

// accessRig builds a Tiny controller under sch with fl (nil for none)
// attached to the controller and the DRAM model, and warms it until the
// scratch buffers, the stash index and the posted-write queue reach
// steady-state capacity. Its op is one end-to-end demand read of a random
// block against a cold PLB: up to three path accesses, with PosMap
// recursion, eviction and DRAM traffic.
func accessRig(tb testing.TB, sch config.Scheme, fl *flight.Recorder) (*Controller, func()) {
	tb.Helper()
	cfg := config.Tiny().WithScheme(sch)
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(1))
	if err != nil {
		tb.Fatal(err)
	}
	c.AttachFlight(fl)
	mem.AttachFlight(fl)
	is := NewIssuer(c, nil)
	r := rng.New(2)
	nd := cfg.ORAM.DataBlocks()
	now := uint64(0)
	op := func() { now = is.ReadBlock(now, block.ID(r.Uint64n(nd))) }
	for i := 0; i < 4000; i++ {
		op()
	}
	return c, op
}

// evictRig warms a Tiny controller under sch through the issuer. Its op is
// a full stash round-trip without DRAM timing: read a random path's blocks
// into the stash, remap one of them as a demand access does, then drain
// them back with the single-pass deepest-first eviction. That isolates the
// structures the write phase walks (the stash's membership bitmap, the
// per-level candidate lists, the tree-top store) from memory-model
// arithmetic. The remapped blocks keep the tree top in use: without them
// every block settles into the memory levels and the top stays empty. The
// op is warmed too: its first few hundred runs grow the candidate buffers
// to their high-water marks.
func evictRig(tb testing.TB, sch config.Scheme) (*Controller, func()) {
	c, _ := accessRig(tb, sch, nil)
	r := rng.New(3)
	// Bound once: a closure built inside op would allocate per run.
	var read []tree.Entry
	buffer := func(e tree.Entry, _ int) { read = append(read, e) }
	op := func() {
		leaf := block.Leaf(r.Uint64n(c.o.LeafCount()))
		read = read[:0]
		c.tr.ReadPathEach(leaf, buffer)
		if c.top != nil {
			c.top.ReadPathEach(leaf, buffer)
		}
		if n := len(read); n > 0 {
			e := &read[r.Uint64n(uint64(n))]
			e.Leaf = c.pm.Remap(e.Addr)
		}
		for _, e := range read {
			c.fstash.Insert(e)
		}
		c.evictBuf = evictOntoPath(c.fstash, c.tr, c.top, c.o.Z, c.minLevel,
			c.o.Levels, leaf, nil, c.evictList, c.evictBuf, nil, nil)
	}
	for i := 0; i < 1000; i++ {
		op()
	}
	return c, op
}

func BenchmarkPathAccess(b *testing.B) {
	_, op := accessRig(b, config.Baseline(), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// evictSchemes are evictRig's inputs: Baseline's dedicated tree-top cache,
// and IR-ORAM's S-Stash, whose Fill can refuse a block for a set conflict.
var evictSchemes = []config.Scheme{config.Baseline(), config.IROramScheme()}

func BenchmarkEvict(b *testing.B) {
	for _, sch := range evictSchemes {
		b.Run(sch.Name, func(b *testing.B) {
			_, op := evictRig(b, sch)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
		})
	}
}

// TestPathAccessZeroAllocs pins the zero-allocation guarantee of a
// steady-state demand access under both tree-top designs: the Baseline's
// dedicated cache and IR-ORAM's S-Stash.
func TestPathAccessZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	for _, sch := range []config.Scheme{config.Baseline(), config.IROramScheme()} {
		t.Run(sch.Name, func(t *testing.T) {
			_, op := accessRig(t, sch, nil)
			if avg := testing.AllocsPerRun(400, op); avg != 0 {
				t.Errorf("steady-state ReadBlock allocates %.2f times per access, want 0", avg)
			}
		})
	}
}

// TestEvictZeroAllocs gates BenchmarkEvict's op. The write phase has no
// periodic amortized work; 1000 runs span many stash-occupancy swings.
// Under IR-ORAM the runs must include S-Stash set-conflict refusals.
func TestEvictZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under -race instrumentation")
	}
	for _, sch := range evictSchemes {
		t.Run(sch.Name, func(t *testing.T) {
			c, op := evictRig(t, sch)
			irs, _ := c.top.(*stash.IRStash)
			var before uint64
			if irs != nil {
				before = irs.Conflicts
			}
			if avg := testing.AllocsPerRun(1000, op); avg != 0 {
				t.Errorf("write phase allocates %.2f times per op, want 0", avg)
			}
			if irs != nil && irs.Conflicts == before {
				t.Error("no S-Stash set-conflict refusal in 1000 write phases")
			}
		})
	}
}
