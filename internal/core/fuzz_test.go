package core

import (
	"testing"

	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
)

// fuzzConfig decodes one FuzzNewController input into a Tiny-based system:
// Levels in [0,12], TopLevels in [0,12], Z[l] = zs[l] mod 17 (4 past the
// end of zs), UserBlocks in [0, Slots] (0 is the 50% default), and a scheme
// from config.AllSchemes plus Ring. Out-of-range draws are left for
// config.Validate to reject.
func fuzzConfig(levels, top uint8, zs []byte, user uint32, scheme uint8) config.System {
	schemes := append(config.AllSchemes(), config.RingScheme())
	cfg := config.Tiny().WithScheme(schemes[int(scheme)%len(schemes)])
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

// FuzzNewController draws a tree geometry and a scheme: every input is
// either rejected by config.Validate, or builds a controller that serves
// 200 accesses (pipelineWorkload's mix of reads and write-backs) with
// CheckInvariants clean before and after. Heavily loaded draws make the
// initial placement spill past the memory levels into the top store and
// the F-Stash, which no preset geometry does.
func FuzzNewController(f *testing.F) {
	f.Add(uint8(12), uint8(4), []byte{4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4}, uint32(0), uint8(0))
	// IR-ORAM with Alloc1's shape at 79% of its slots: the memory levels
	// overflow into the S-Stash and the F-Stash.
	f.Add(uint8(12), uint8(5), []byte{4, 4, 4, 4, 4, 2, 2, 2, 3, 3, 4, 4}, uint32(12000), uint8(5))
	f.Fuzz(func(t *testing.T, levels, top uint8, zs []byte, user uint32, scheme uint8) {
		cfg := fuzzConfig(levels, top, zs, user, scheme)
		if cfg.Validate() != nil {
			return
		}
		c, err := NewController(cfg, dram.New(cfg.DRAM), rng.New(cfg.Seed))
		if err != nil {
			t.Fatalf("%s L=%d top=%d Z=%v N=%d: valid config rejected: %v",
				cfg.Scheme.Name, cfg.ORAM.Levels, cfg.ORAM.TopLevels, cfg.ORAM.Z, cfg.ORAM.UserBlocks, err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("after construction: %v", err)
		}
		is := NewIssuer(c, nil)
		now := uint64(0)
		for _, op := range pipelineWorkload(200, c.pm.DataBlocks(), cfg.Scheme) {
			if op.cswtch {
				now = c.ContextSwitch(now)
			} else if op.write {
				now = is.PostWrite(now+op.gap, op.addr)
			} else {
				now = is.ReadBlock(now+op.gap, op.addr)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s L=%d top=%d Z=%v N=%d: after 200 accesses: %v",
				cfg.Scheme.Name, cfg.ORAM.Levels, cfg.ORAM.TopLevels, cfg.ORAM.Z, cfg.ORAM.UserBlocks, err)
		}
	})
}
