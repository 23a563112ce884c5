package config

// Preset geometries. Paper() reproduces Table I exactly; Scaled() is the
// default for the experiment harness (same level structure relative to the
// 10-level tree-top cache, 1/16 the capacity, so a full figure sweep runs in
// minutes instead of days); Tiny() is for unit tests.

// Paper returns the Table I system: 8 GB protected space, 4 GB user data,
// L=25, Z=4, 64 B blocks, 200-entry stash, 10 tree-top levels on-chip
// (256 KB / 4 K entries), 4-channel 800 MHz DRAM under a 3.2 GHz core,
// 2 MB 8-way LLC, T=1000 cycles.
func Paper() System {
	return withGeometry(25)
}

// Scaled returns the default experiment geometry: L=21 (256 MB user data)
// with the LLC scaled to 512 KB so the cache-to-tree capacity ratios (and
// therefore eviction rates, tree-top reuse windows and the ρ small-tree
// sweet spot) stay in the paper's regime. Utilization bands, PLB behaviour
// and scheme ordering are level-relative, so the scaled system reproduces
// the paper's shapes at tractable cost.
func Scaled() System {
	s := withGeometry(21)
	s.LLC = Cache{CapacityBytes: 512 * 1024, Ways: 8, HitLatency: 30}
	// The PLB scales with the PosMap footprint (1/16 of Table I's space)
	// for the same reason the LLC scales: on-chip cache reach relative to
	// working sets is what sets PLB miss rates, tree-top reuse and the
	// PosMap-path traffic IR-Stash attacks.
	s.ORAM.PLBEntries = 32
	s.ORAM.PLBWays = 4
	return s
}

// Tiny returns a unit-test geometry: L=14, 5 on-chip levels, small caches.
func Tiny() System {
	s := withGeometry(14)
	s.ORAM.TopLevels = 5
	s.ORAM.Z = Uniform(14, 4)
	s.ORAM.PLBEntries = 32
	s.ORAM.PLBWays = 4
	s.LLC = Cache{CapacityBytes: 64 * 1024, Ways: 8, HitLatency: 30}
	return s
}

func withGeometry(levels int) System {
	return System{
		ORAM: ORAM{
			Levels:              levels,
			TopLevels:           10,
			Z:                   Uniform(levels, 4),
			StashCapacity:       200,
			StashEvictThreshold: 150,
			SStashWays:          4,
			PLBEntries:          128,
			PLBWays:             8,
			IntervalT:           1000,
			OnChipLatency:       12,
		},
		DRAM: DRAM{
			Channels:              4,
			BanksPerChannel:       16,
			RowBytes:              8192,
			CPUCyclesPerDRAMCycle: 4,
			TRCD:                  11,
			TCAS:                  11,
			TRP:                   11,
			TBurst:                4,
			TWR:                   12,
		},
		LLC:    Cache{CapacityBytes: 2 * 1024 * 1024, Ways: 8, HitLatency: 30},
		CPU:    CPU{IPC: 4, WriteQueueDepth: 16, MLP: 4},
		Scheme: Baseline(),
		Seed:   1,
	}
}

// The compared schemes of Section VI. Each function returns the Scheme knob
// settings; the caller owns the matching Z profile via WithScheme.

// Baseline is Freecursive Path ORAM with the 10-level dedicated tree-top
// cache, subtree layout and background eviction.
func Baseline() Scheme {
	return Scheme{Name: "Baseline", Top: TopDedicated}
}

// RhoScheme is the ρ design of Nagarajan et al. over Baseline: best small
// tree (L-6 levels, Z=2) and a fixed 1:2 main:small issue pattern.
func RhoScheme() Scheme {
	return Scheme{Name: "Rho", Top: TopDedicated, Rho: true,
		RhoLevelsDelta: 6, RhoZ: 2, RhoPattern: 2}
}

// IRAllocScheme is IR-Alloc standalone over Baseline. The Z profile is
// selected separately (AllocStandaloneProfile).
func IRAllocScheme() Scheme {
	return Scheme{Name: "IR-Alloc", Top: TopDedicated}
}

// IRStashScheme is IR-Stash over Baseline: the tree top moves into the
// double-indexed S-Stash.
func IRStashScheme() Scheme {
	return Scheme{Name: "IR-Stash", Top: TopIRStash}
}

// IRDWBScheme is IR-DWB over Baseline.
func IRDWBScheme() Scheme {
	return Scheme{Name: "IR-DWB", Top: TopDedicated, DWB: true}
}

// IROramScheme integrates all three proposals. The integrated Z profile is
// IROramProfile.
func IROramScheme() Scheme {
	return Scheme{Name: "IR-ORAM", Top: TopIRStash, DWB: true}
}

// LLCDScheme is Baseline plus the delayed block remapping policy of ρ.
func LLCDScheme() Scheme {
	return Scheme{Name: "LLC-D", Top: TopDedicated, DelayedRemap: true}
}

// IRStashAllocOnLLCD is IR-Alloc + IR-Stash on top of an LLC-D baseline
// (Fig 11).
func IRStashAllocOnLLCD() Scheme {
	return Scheme{Name: "IR-Stash+IR-Alloc/LLC-D", Top: TopIRStash, DelayedRemap: true}
}

// IROramOnLLCD implements the paper's Section IV-D future work: the full
// IR-ORAM stack over an LLC-D baseline, with dummy paths converted into
// proactive PosMap prefetches for LLC LRU entries so their eventual
// eviction reinserts for free.
func IROramOnLLCD() Scheme {
	return Scheme{Name: "IR-ORAM/LLC-D", Top: TopIRStash,
		DelayedRemap: true, DWB: true, ProactiveRemap: true}
}

// Z profiles from the paper, expressed as leaf-relative bands so they scale
// with L (Section VI-B gives them for L=25 with 10 on-chip levels).

// AllocStandaloneProfile is the standalone IR-Alloc setting of Fig 10
// ("Z=1 for [10,15], Z=2 for [16,18]" at L=25), identical to IR-Alloc4.
func AllocStandaloneProfile(levels, topLevels int) ZProfile {
	return Alloc4Profile(levels, topLevels)
}

// IROramProfile is the integrated IR-ORAM setting of Fig 10 ("Z=2 for
// [10,16] and Z=3 for [17,19]" at L=25), identical to IR-Alloc1.
func IROramProfile(levels, topLevels int) ZProfile {
	return Alloc1Profile(levels, topLevels)
}

// Alloc1Profile: Z=2 for L10-16, Z=3 for L17-19, Z=4 below (PL=43 at L=25).
func Alloc1Profile(levels, topLevels int) ZProfile {
	return Banded(levels, topLevels, 2, Band{5, 4}, Band{3, 3})
}

// Alloc2Profile: Z=2 for L10-16 and L17-18, Z=4 below (PL=42 at L=25).
func Alloc2Profile(levels, topLevels int) ZProfile {
	return Banded(levels, topLevels, 2, Band{6, 4})
}

// Alloc3Profile: Z=1 for L10-14, Z=2 for L15-18, Z=4 below (PL=37 at L=25).
func Alloc3Profile(levels, topLevels int) ZProfile {
	return Banded(levels, topLevels, 1, Band{6, 4}, Band{4, 2})
}

// Alloc4Profile: Z=1 for L10-15, Z=2 for L16-18, Z=4 below (PL=36 at L=25).
func Alloc4Profile(levels, topLevels int) ZProfile {
	return Banded(levels, topLevels, 1, Band{6, 4}, Band{3, 2})
}

// WithScheme returns a copy of s configured for the named scheme preset,
// installing the matching Z profile where the scheme requires one.
func (s System) WithScheme(sch Scheme) System {
	s.Scheme = sch
	o := &s.ORAM
	switch sch.Name {
	case "IR-Alloc":
		o.Z = AllocStandaloneProfile(o.Levels, o.TopLevels)
	case "IR-ORAM":
		o.Z = IROramProfile(o.Levels, o.TopLevels)
	case "IR-Stash+IR-Alloc/LLC-D", "IR-ORAM/LLC-D":
		o.Z = IROramProfile(o.Levels, o.TopLevels)
	case "Ring+IR-Alloc":
		o.Z = IROramProfile(o.Levels, o.TopLevels)
	default:
		o.Z = Uniform(o.Levels, 4)
	}
	return s
}

// RingScheme is Ring ORAM (Ren et al.) over the Baseline's tree-top cache
// and Freecursive recursion: reads fetch one block per bucket, buckets are
// reshuffled after RingS reads, and a full eviction path runs every RingA
// accesses (the S=12, A=8 setting: with an eviction path every 8 reads, a bucket at any level sees ~8 reads between evict-path crossings, so 12 dummies avoid most early reshuffles).
func RingScheme() Scheme {
	return Scheme{Name: "Ring", Top: TopDedicated, Ring: true, RingS: 12, RingA: 8}
}

// RingIRAlloc composes Ring ORAM with the IR-Alloc bucket-size profile —
// the integration Section VII describes as orthogonal.
func RingIRAlloc() Scheme {
	return Scheme{Name: "Ring+IR-Alloc", Top: TopDedicated, Ring: true, RingS: 12, RingA: 8}
}

// AllSchemes returns the schemes compared in Fig 10, in plot order.
func AllSchemes() []Scheme {
	return []Scheme{
		Baseline(), RhoScheme(), IRAllocScheme(), IRStashScheme(),
		IRDWBScheme(), IROramScheme(), LLCDScheme(),
	}
}
