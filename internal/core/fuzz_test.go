package core_test

import (
	"fmt"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/sim"
	"iroram/internal/trace"
)

// fuzzRequests is how many xz requests one FuzzNewController input runs; a
// context switch falls halfway through.
const fuzzRequests = 1000

// fuzzConfig decodes one FuzzNewController input into a Tiny-based system:
// Levels in [0,12], TopLevels in [0,12], Z[l] = zs[l] mod 17 (4 past the
// end of zs), UserBlocks in [0, Slots] (0 is the 50% default), and a
// scheme. A scheme byte below 128 picks a preset from config.AllSchemes
// plus Ring. From 128 up, the rest of the byte picks a protocol {Path, ρ,
// Ring}, a tree-top design {none, dedicated, IR-Stash}, IR-DWB and LLC-D,
// the flags TestSchemeFlagMatrix (internal/sim) combines, so combinations
// no preset uses get fuzzed too. Out-of-range draws are left for
// config.Validate to reject.
func fuzzConfig(levels, top uint8, zs []byte, user uint32, scheme uint8) config.System {
	cfg := config.Tiny()
	if scheme < 128 {
		schemes := append(config.AllSchemes(), config.RingScheme())
		cfg = cfg.WithScheme(schemes[int(scheme)%len(schemes)])
	} else {
		v := int(scheme - 128)
		sch := []config.Scheme{config.Baseline(), config.RhoScheme(), config.RingScheme()}[v%3]
		sch.Top = []config.TopDesign{config.TopNone, config.TopDedicated, config.TopIRStash}[v/3%3]
		sch.DWB, sch.DelayedRemap = v/9%2 == 1, v/18%2 == 1
		cfg = cfg.WithScheme(sch)
	}
	o := &cfg.ORAM
	o.Levels = int(levels % 13)
	o.TopLevels = int(top % 13)
	o.Z = make(config.ZProfile, o.Levels)
	for l := range o.Z {
		o.Z[l] = 4
		if l < len(zs) {
			o.Z[l] = int(zs[l] % 17)
		}
	}
	o.UserBlocks = uint64(user) % (o.Z.Slots() + 1)
	return cfg
}

// fuzzSystem runs one FuzzNewController input: nil when config.Validate
// rejects it, otherwise the System after fuzzRequests xz requests, with
// CheckInvariants clean after construction, around the context switch and
// at the end.
func fuzzSystem(t *testing.T, levels, top uint8, zs []byte, user uint32, scheme uint8) *sim.System {
	t.Helper()
	cfg := fuzzConfig(levels, top, zs, user, scheme)
	if cfg.Validate() != nil {
		return nil
	}
	o := cfg.ORAM
	desc := fmt.Sprintf("%+v L=%d top=%d Z=%v N=%d", cfg.Scheme, o.Levels, o.TopLevels, o.Z, o.UserBlocks)
	s, err := sim.New(cfg)
	if err != nil {
		t.Fatalf("%s: valid config rejected: %v", desc, err)
	}
	check := func(when string) {
		t.Helper()
		if err := s.Controller().CheckInvariants(); err != nil {
			t.Fatalf("%s: %s: %v", desc, when, err)
		}
	}
	check("after construction")
	gen := trace.MustBenchmark("xz", cfg.ORAM.DataBlocks(), 1)
	for i := 0; i < fuzzRequests; i++ {
		req, ok := gen.Next()
		if !ok {
			t.Fatalf("the trace ended after %d requests", i)
		}
		s.Step(req)
		if i == fuzzRequests/2 {
			check("before the context switch")
			s.Controller().ContextSwitch(s.Now())
			check("after the context switch")
		}
	}
	check("at the end")
	return s
}

// FuzzNewController draws a tree geometry and a scheme: every input is
// either rejected by config.Validate, or builds a System (controller,
// issuer, and an LLC that feeds IR-DWB) that serves fuzzRequests requests
// with CheckInvariants clean throughout. Heavily loaded draws make the
// initial placement spill past the memory levels into the top store and
// the F-Stash, which no preset geometry does.
func FuzzNewController(f *testing.F) {
	f.Add(uint8(12), uint8(4), []byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, uint32(0), uint8(0))
	// IR-ORAM with Alloc1's shape at 79% of its slots: the memory levels
	// overflow into the S-Stash and the F-Stash.
	f.Add(uint8(12), uint8(5), []byte{4, 4, 4, 4, 4, 2, 2, 2, 3, 3, 4, 4}, uint32(12000), uint8(5))
	f.Add(uint8(12), uint8(5), []byte{}, uint32(0), dwbScheme)
	f.Fuzz(func(t *testing.T, levels, top uint8, zs []byte, user uint32, scheme uint8) {
		fuzzSystem(t, levels, top, zs, user, scheme)
	})
}

// dwbScheme is a flag combination no preset uses: Path ORAM with the
// dedicated tree top, IR-DWB and LLC-D.
const dwbScheme uint8 = 128 + 0 + 1*3 + 1*9 + 1*18

// TestFuzzSeedReachesDWB checks that fuzzing reaches IR-DWB: the
// FuzzNewController seed with dwbScheme converts dummy slots into early
// write-backs.
func TestFuzzSeedReachesDWB(t *testing.T) {
	s := fuzzSystem(t, 12, 5, []byte{}, 0, dwbScheme)
	if s == nil {
		t.Fatal("config.Validate rejects the seed")
	}
	if st := s.Controller().Stats(); st.Paths.Paths[block.PathDWB] == 0 {
		t.Errorf("no IR-DWB conversion in %d requests (%d dummy paths)", fuzzRequests, st.Paths.Paths[block.PathDummy])
	}
}
