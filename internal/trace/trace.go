// Package trace models the memory request streams that drive the simulator.
//
// The paper collects Pin traces of SPEC CPU2017 and PARSEC at L1-miss
// granularity (2M L1 misses per program) and reports each benchmark's LLC
// read/write MPKI (Table II). Those traces are not redistributable, so this
// package provides synthetic generators calibrated to the same observables:
//
//   - memory intensity (read+write MPKI after LLC filtering), which sets the
//     dummy-path rate under timing protection;
//   - read/write mix, which LLC-D and IR-DWB are sensitive to;
//   - spatial/temporal locality, which sets PLB and tree-top hit rates.
//
// Every generator is deterministic given a seed.
package trace

import "iroram/internal/rng"

// Request is one record of an L1-miss-level trace.
type Request struct {
	// Addr is the block address in the protected data space [0, universe).
	Addr uint64
	// Write marks a store miss / write-allocate.
	Write bool
	// GapInstr is the number of instructions executed since the previous
	// record (drives the CPU clock between misses).
	GapInstr uint32
}

// Generator produces a request stream.
type Generator interface {
	// Name identifies the workload (Table II benchmark name, "random", ...).
	Name() string
	// Next returns the next request; ok is false when the trace is
	// exhausted. Generators backed by synthesis never exhaust.
	Next() (req Request, ok bool)
}

// PatternKind selects the address pattern of the cold (LLC-missing) region.
type PatternKind uint8

const (
	// Stream walks the region sequentially (high PosMap/PLB locality:
	// 16 consecutive blocks share one PosMap1 block).
	Stream PatternKind = iota
	// Strided walks with a fixed multi-block stride (moderate locality).
	Strided
	// Chase jumps through a pseudo-random permutation (no locality; the
	// mcf-like worst case for the PLB and the tree top).
	Chase
	// Uniform draws addresses uniformly at random.
	Uniform
)

// Spec describes a synthetic benchmark. MPKI targets are the Table II
// values, i.e. LLC misses per kilo-instruction; the generator arranges the
// stream so that an LLC of the configured size reproduces them
// approximately (see the calibration test).
type Spec struct {
	Name      string
	ReadMPKI  float64
	WriteMPKI float64
	// Pattern of the cold region.
	Pattern PatternKind
	// ColdBlocks is the cold-region size in blocks; it should be much
	// larger than the LLC so cold accesses miss.
	ColdBlocks uint64
	// HotBlocks is the hot-region size; it should fit in the LLC so hot
	// accesses hit and only add recency traffic. Zero disables the hot mix.
	HotBlocks uint64
	// ColdFraction is the share of accesses aimed at the cold region.
	ColdFraction float64
	// Stride for the Strided pattern, in blocks.
	Stride uint64
	// ConflictBlocks > 0 adds an LLC-conflict component: a round-robin loop
	// over that many blocks spaced conflictStride apart, so they fall into
	// few LLC sets and miss despite their short reuse distance. This is
	// what makes recently used blocks re-reach the ORAM while they still
	// sit in the tree top — the reuse behind Fig 6 and IR-Stash's wins.
	ConflictBlocks uint64
	// ConflictFraction is the share of accesses aimed at the conflict loop.
	ConflictFraction float64
	// IdleEvery > 0 injects a long computation gap every that many accesses
	// (program phase behaviour). Idle windows are where timing protection
	// inserts dummy paths (PT_m) — and where IR-DWB finds slots to convert.
	IdleEvery int
	// IdleInstr is the injected gap length in instructions.
	IdleInstr uint32
	// SegmentBlocks adds two-level spatial locality to the Uniform cold
	// pattern: draws cluster into a random segment of this many blocks for
	// a dozen bursts before moving on, and each burst touches BurstLen
	// consecutive blocks. This is what gives real programs their
	// PosMap2-over-PosMap1 PLB locality (the 4:1 Pos1:Pos2 ratio of
	// Fig 2). Zero keeps pure uniform draws.
	SegmentBlocks uint64
	// BurstLen is the consecutive-block run per draw (1 if zero).
	BurstLen int
}

// segmentBursts is how many bursts a Uniform-pattern segment serves before
// the generator re-draws a segment.
const segmentBursts = 12

// conflictStride spaces conflict-loop blocks so they land in few LLC sets
// for both the tiny (128-set) and scaled (4096-set) LLC geometries.
const conflictStride = 1024

// Synth generates an infinite stream per a Spec.
type Synth struct {
	spec       Spec
	universe   uint64
	rng        *rng.Source
	gap        uint32
	writeFrac  float64
	coldBase   uint64
	hotBase    uint64
	cursor     uint64
	confCursor uint64
	sinceIdle  int
	chaseMul   uint64
	chaseAdd   uint64

	// Segment/burst state for the Uniform pattern.
	segBase   uint64
	segLeft   int
	burstAddr uint64
	burstLeft int
}

// NewSynth builds a generator over a protected space of universe blocks.
// Regions are placed deterministically from the seed; the cold region is
// clamped to the universe.
func NewSynth(spec Spec, universe uint64, seed uint64) *Synth {
	r := rng.New(seed ^ hashName(spec.Name))
	total := spec.ReadMPKI + spec.WriteMPKI
	writeFrac := 0.0
	if total > 0 {
		writeFrac = spec.WriteMPKI / total
	}
	if spec.ColdFraction <= 0 || spec.ColdFraction > 1 {
		spec.ColdFraction = 0.5
	}
	if spec.ColdBlocks == 0 || spec.ColdBlocks > universe {
		spec.ColdBlocks = universe
	}
	if spec.HotBlocks >= universe/2 {
		spec.HotBlocks = universe / 4
	}
	// Misses per kilo-instruction come (approximately) from the cold region
	// and the conflict loop; scale the raw access rate so the LLC-filtered
	// rate lands near the Table II target.
	missFraction := spec.ConflictFraction +
		(1-spec.ConflictFraction)*spec.ColdFraction
	if missFraction <= 0 {
		missFraction = spec.ColdFraction
	}
	accessesPerKI := total / missFraction
	gap := uint32(2)
	if accessesPerKI > 0 {
		g := 1000 / accessesPerKI
		switch {
		case g < 1:
			gap = 1
		case g > 4_000_000:
			gap = 4_000_000
		default:
			gap = uint32(g)
		}
	} else {
		gap = 1_000_000 // near-idle program
	}
	s := &Synth{
		spec:      spec,
		universe:  universe,
		rng:       r,
		gap:       gap,
		writeFrac: writeFrac,
		hotBase:   0,
	}
	if spec.HotBlocks > 0 && spec.HotBlocks < universe {
		s.coldBase = spec.HotBlocks
	}
	if s.coldBase+spec.ColdBlocks > universe {
		s.spec.ColdBlocks = universe - s.coldBase
	}
	// A fixed odd multiplier walks the cold region in a full-period
	// pseudo-random order for the Chase pattern (Weyl-like sequence).
	s.chaseMul = 0x9E3779B97F4A7C15 | 1
	s.chaseAdd = r.Uint64()
	return s
}

func hashName(name string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// Name implements Generator.
func (s *Synth) Name() string { return s.spec.Name }

// Next implements Generator; it never exhausts.
func (s *Synth) Next() (Request, bool) {
	gap := s.gap
	if s.spec.IdleEvery > 0 {
		s.sinceIdle++
		if s.sinceIdle >= s.spec.IdleEvery {
			s.sinceIdle = 0
			gap += s.spec.IdleInstr
		}
	}
	var addr uint64
	switch {
	case s.spec.ConflictBlocks > 0 && s.rng.Float64() < s.spec.ConflictFraction:
		addr = (s.confCursor % s.spec.ConflictBlocks) * conflictStride % s.universe
		s.confCursor++
	case s.rng.Float64() < s.spec.ColdFraction || s.spec.HotBlocks == 0:
		addr = s.coldBase + s.coldAddr()
	default:
		addr = s.hotBase + s.rng.Uint64n(s.spec.HotBlocks)
	}
	write := s.rng.Float64() < s.writeFrac
	return Request{Addr: addr, Write: write, GapInstr: gap}, true
}

func (s *Synth) coldAddr() uint64 {
	n := s.spec.ColdBlocks
	switch s.spec.Pattern {
	case Stream:
		a := s.cursor % n
		s.cursor++
		return a
	case Strided:
		stride := s.spec.Stride
		if stride == 0 {
			stride = 8
		}
		a := (s.cursor * stride) % n
		s.cursor++
		return a
	case Chase:
		s.cursor++
		return (s.cursor*s.chaseMul + s.chaseAdd) % n
	default:
		if s.spec.SegmentBlocks == 0 {
			return s.rng.Uint64n(n)
		}
		if s.burstLeft == 0 {
			if s.segLeft == 0 {
				s.segBase = s.rng.Uint64n(n)
				s.segLeft = segmentBursts
			}
			s.segLeft--
			s.burstAddr = (s.segBase + s.rng.Uint64n(s.spec.SegmentBlocks)) % n
			s.burstLeft = s.spec.BurstLen
			if s.burstLeft <= 0 {
				s.burstLeft = 1
			}
		}
		s.burstLeft--
		a := s.burstAddr
		s.burstAddr = (s.burstAddr + 1) % n
		return a
	}
}

// Random returns a uniform-random generator over the whole space with the
// given write fraction; the paper uses such traces for the Fig 3 tail, the
// Z-search algorithm and the scalability study (Fig 16).
func Random(universe uint64, writeFrac float64, seed uint64) *Synth {
	return NewSynth(Spec{
		Name:         "random",
		ReadMPKI:     40 * (1 - writeFrac),
		WriteMPKI:    40 * writeFrac,
		Pattern:      Uniform,
		ColdFraction: 1,
	}, universe, seed)
}

// Mix interleaves several generators round-robin, the paper's "mix" bar.
type Mix struct {
	name string
	gens []Generator
	next int
}

// NewMix builds a round-robin interleaving.
func NewMix(name string, gens ...Generator) *Mix {
	return &Mix{name: name, gens: gens}
}

// Name implements Generator.
func (m *Mix) Name() string { return m.name }

// Next implements Generator. It skips exhausted members and reports ok=false
// only when every member is exhausted.
func (m *Mix) Next() (Request, bool) {
	for tries := 0; tries < len(m.gens); tries++ {
		g := m.gens[m.next]
		m.next = (m.next + 1) % len(m.gens)
		if req, ok := g.Next(); ok {
			return req, true
		}
	}
	return Request{}, false
}

// Concat plays generators one after another, each limited to per entries;
// used for the Fig 3 trace (benchmark mix followed by a random tail).
type Concat struct {
	name    string
	gens    []Generator
	per     []int
	current int
	used    int
}

// NewConcat builds the concatenation; per[i] bounds the requests taken from
// gens[i] (0 means drain).
func NewConcat(name string, gens []Generator, per []int) *Concat {
	return &Concat{name: name, gens: gens, per: per}
}

// Name implements Generator.
func (c *Concat) Name() string { return c.name }

// Next implements Generator.
func (c *Concat) Next() (Request, bool) {
	for c.current < len(c.gens) {
		limit := c.per[c.current]
		if limit == 0 || c.used < limit {
			if req, ok := c.gens[c.current].Next(); ok {
				c.used++
				return req, true
			}
		}
		c.current++
		c.used = 0
	}
	return Request{}, false
}
