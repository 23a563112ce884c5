package config

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestPaperPresetValid(t *testing.T) {
	for _, sys := range []System{Paper(), Scaled(), Tiny()} {
		if err := sys.Validate(); err != nil {
			t.Errorf("%d levels: %v", sys.ORAM.Levels, err)
		}
	}
}

func TestAllSchemesValidate(t *testing.T) {
	for _, sch := range AllSchemes() {
		sys := Scaled().WithScheme(sch)
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: %v", sch.Name, err)
		}
	}
	sys := Scaled().WithScheme(IRStashAllocOnLLCD())
	if err := sys.Validate(); err != nil {
		t.Errorf("fig11 scheme: %v", err)
	}
}

// TestFig7BlocksPerPath pins the paper's Fig 7 arithmetic: at L=25 with the
// 10-level tree-top cache, one path moves 100 blocks with no top cache, 60
// with it, and 43 with the integrated IR-Alloc profile.
func TestFig7BlocksPerPath(t *testing.T) {
	uni := Uniform(25, 4)
	if got := uni.BlocksPerPath(0); got != 100 {
		t.Errorf("no top cache: %d blocks per path, want 100", got)
	}
	if got := uni.BlocksPerPath(10); got != 60 {
		t.Errorf("top-10 cache: %d blocks per path, want 60", got)
	}
	if got := IROramProfile(25, 10).BlocksPerPath(10); got != 43 {
		t.Errorf("IR-ORAM profile: %d blocks per path, want 43", got)
	}
}

// TestFig12ProfilePL pins the per-path block counts of the four IR-Alloc
// configurations in Section VI-B.
func TestFig12ProfilePL(t *testing.T) {
	cases := []struct {
		name string
		prof ZProfile
		want int
	}{
		{"IR-Alloc1", Alloc1Profile(25, 10), 43},
		{"IR-Alloc2", Alloc2Profile(25, 10), 42},
		{"IR-Alloc3", Alloc3Profile(25, 10), 37},
		{"IR-Alloc4", Alloc4Profile(25, 10), 36},
	}
	for _, c := range cases {
		if got := c.prof.BlocksPerPath(10); got != c.want {
			t.Errorf("%s: PL=%d, want %d", c.name, got, c.want)
		}
	}
}

// TestAlloc1MatchesPaperLevels verifies the leaf-relative band encoding
// reproduces the paper's absolute level ranges at L=25.
func TestAlloc1MatchesPaperLevels(t *testing.T) {
	p := Alloc1Profile(25, 10)
	for l := 10; l <= 16; l++ {
		if p[l] != 2 {
			t.Errorf("level %d: Z=%d, want 2", l, p[l])
		}
	}
	for l := 17; l <= 19; l++ {
		if p[l] != 3 {
			t.Errorf("level %d: Z=%d, want 3", l, p[l])
		}
	}
	for l := 20; l <= 24; l++ {
		if p[l] != 4 {
			t.Errorf("level %d: Z=%d, want 4", l, p[l])
		}
	}
}

// TestSpaceReductionUnder1Percent checks the paper's claim that every
// IR-Alloc configuration keeps the DRAM space loss below 1%... of the total
// tree; Section IV-B reports ~0.9% for the Fig 7 allocation.
func TestSpaceReductionUnder1Percent(t *testing.T) {
	base := Uniform(25, 4)
	for _, prof := range []ZProfile{
		Alloc1Profile(25, 10), Alloc2Profile(25, 10),
		Alloc3Profile(25, 10), Alloc4Profile(25, 10),
	} {
		red := prof.SpaceReductionVs(base, 10)
		if red <= 0 || red >= 0.01 {
			t.Errorf("space reduction %.4f out of (0, 0.01)", red)
		}
	}
}

func TestDataBlocksPaper(t *testing.T) {
	o := Paper().ORAM
	// 4 GB of user data in 64 B blocks = 2^26 blocks ("64 million").
	if got := o.DataBlocks(); got < 1<<26-4 || got > 1<<26 {
		t.Errorf("DataBlocks() = %d, want about 2^26", got)
	}
}

func TestValidateCatchesBadGeometry(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*System)
		want   string
	}{
		{"levels", func(s *System) { s.ORAM.Levels = 2 }, "levels"},
		{"top", func(s *System) { s.ORAM.TopLevels = 99 }, "top levels"},
		{"notop", func(s *System) { s.ORAM.TopLevels = 0 }, "on-chip level"},
		{"nosstash", func(s *System) {
			s.Scheme = IRStashScheme()
			s.ORAM.TopLevels = 1
			s.ORAM.Z[0] = 0
		}, "tree-top slot"},
		{"zlen", func(s *System) { s.ORAM.Z = Uniform(3, 4) }, "Z profile"},
		{"zzero", func(s *System) { s.ORAM.Z[12] = 0 }, "Z=0"},
		{"stash", func(s *System) { s.ORAM.StashCapacity = 1 }, "stash"},
		{"thresh", func(s *System) { s.ORAM.StashEvictThreshold = 999 }, "threshold"},
		{"plb", func(s *System) { s.ORAM.PLBWays = 3 }, "PLB"},
		{"fit", func(s *System) { s.ORAM.UserBlocks = 1 << 40 }, "slots"},
		{"dram", func(s *System) { s.DRAM.Channels = 0 }, "DRAM"},
		{"timing", func(s *System) { s.DRAM.TRCD = 0 }, "timings"},
		{"cache", func(s *System) { s.LLC.Ways = 3 }, "cache"},
		{"cpu", func(s *System) { s.CPU.IPC = 0 }, "IPC"},
		{"rho", func(s *System) { s.Scheme = RhoScheme(); s.Scheme.RhoZ = 0 }, "rho"},
		{"rhodwb", func(s *System) { s.Scheme = RhoScheme(); s.Scheme.DWB = true }, "IR-DWB"},
	}
	for _, c := range cases {
		sys := Scaled()
		c.mutate(&sys)
		err := sys.Validate()
		if err == nil {
			t.Errorf("%s: expected error", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

// TestValidateBlockAddressWidth checks the 32-bit block address limit at
// the paper's geometry grown to L levels. Only Validate runs: the trees
// would take tens of GB.
func TestValidateBlockAddressWidth(t *testing.T) {
	cases := []struct {
		levels int
		want   string // "" when the geometry is valid
	}{
		{30, ""},
		{31, "32-bit"},
		{32, "32-bit"},
	}
	for _, c := range cases {
		err := withGeometry(c.levels).Validate()
		switch {
		case c.want == "" && err != nil:
			t.Errorf("L=%d: %v", c.levels, err)
		case c.want != "" && err == nil:
			t.Errorf("L=%d: %d blocks accepted", c.levels, withGeometry(c.levels).ORAM.DataBlocks())
		case c.want != "" && !strings.Contains(err.Error(), c.want):
			t.Errorf("L=%d: error %q does not mention %q", c.levels, err, c.want)
		}
	}
}

func TestBandedCoversAllLevels(t *testing.T) {
	check := func(seed uint64) bool {
		levels := int(seed%20) + 12
		top := int(seed>>8) % (levels - 2)
		p := Banded(levels, top, 1, Band{3, 4}, Band{2, 2})
		if len(p) != levels {
			return false
		}
		for l, z := range p {
			if z < 1 || z > 4 {
				return false
			}
			if l < top && z != 4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Error(err)
	}
}

func TestSlotsMatchesClosedForm(t *testing.T) {
	// Uniform Z: slots = Z * (2^L - 1).
	for _, l := range []int{5, 14, 21, 25} {
		p := Uniform(l, 4)
		want := uint64(4) * ((1 << uint(l)) - 1)
		if got := p.Slots(); got != want {
			t.Errorf("L=%d: slots %d, want %d", l, got, want)
		}
	}
}

func TestMemorySlotsExcludesTop(t *testing.T) {
	p := Uniform(25, 4)
	if p.MemorySlots(10) >= p.Slots() {
		t.Error("memory slots should exclude the on-chip top")
	}
	diff := p.Slots() - p.MemorySlots(10)
	want := uint64(4) * ((1 << 10) - 1)
	if diff != want {
		t.Errorf("top slots %d, want %d", diff, want)
	}
}

func TestTopCacheMatchesTableI(t *testing.T) {
	// Table I: dedicated tree-top cache of 4 K entries = top 10 levels.
	top := Uniform(25, 4).Slots() - Uniform(25, 4).MemorySlots(10)
	if top != 4092 {
		t.Errorf("top-10 slots = %d, want 4092 (~4K entries)", top)
	}
}

func TestWithSchemeInstallsProfile(t *testing.T) {
	sys := Scaled().WithScheme(IROramScheme())
	if sys.ORAM.Z.BlocksPerPath(10) >= Uniform(21, 4).BlocksPerPath(10) {
		t.Error("IR-ORAM profile should reduce blocks per path")
	}
	back := sys.WithScheme(Baseline())
	if back.ORAM.Z.BlocksPerPath(10) != Uniform(21, 4).BlocksPerPath(10) {
		t.Error("switching back to Baseline should restore uniform Z")
	}
}
