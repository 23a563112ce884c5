package sim

import (
	"testing"

	"iroram/internal/config"
	"iroram/internal/trace"
)

// TestSchemeFlagMatrix runs every scheme-flag combination Validate
// accepts: tree-top design {dedicated, IR-Stash} × IR-DWB × LLC-D ×
// protocol {Path, ρ, Ring}, most of which no preset uses. Each runs a Tiny
// System on gcc for 2,000 requests with CheckInvariants every 100, and
// must keep the issue-gap audit clean. Validate may reject only the
// combinations the controller does not implement: Ring with LLC-D, and ρ
// with IR-DWB.
func TestSchemeFlagMatrix(t *testing.T) {
	const requests, every = 2000, 100
	for _, proto := range []config.Scheme{config.Baseline(), config.RhoScheme(), config.RingScheme()} {
		for _, top := range []config.TopDesign{config.TopDedicated, config.TopIRStash} {
			for _, dwb := range []bool{false, true} {
				for _, llcd := range []bool{false, true} {
					sch := proto
					sch.Top, sch.DWB, sch.DelayedRemap = top, dwb, llcd
					sch.Name = proto.Name + "+" + top.String()
					if dwb {
						sch.Name += "+IR-DWB"
					}
					if llcd {
						sch.Name += "+LLC-D"
					}
					t.Run(sch.Name, func(t *testing.T) {
						cfg := config.Tiny().WithScheme(sch)
						if err := cfg.Validate(); err != nil {
							if !(sch.Ring && llcd || sch.Rho && dwb) {
								t.Fatalf("Validate rejects a combination the controller implements: %v", err)
							}
							return
						}
						s, err := New(cfg)
						if err != nil {
							t.Fatal(err)
						}
						gen := trace.MustBenchmark("gcc", universe(s), 1)
						for i := 1; i <= requests; i++ {
							req, ok := gen.Next()
							if !ok {
								t.Fatalf("the trace ended after %d requests", i-1)
							}
							s.Step(req)
							if i%every != 0 {
								continue
							}
							if err := s.ctrl.CheckInvariants(); err != nil {
								t.Fatalf("after %d requests: %v", i, err)
							}
						}
						if n := s.ctrl.Stats().NonUniformIssues; n != 0 {
							t.Errorf("%d issue-gap violations", n)
						}
					})
				}
			}
		}
	}
}
