package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/stash"
	"iroram/internal/tree"
)

// pipelineOp is one step of an issuer-driven workload segment.
type pipelineOp struct {
	addr   block.ID
	write  bool
	gap    uint64
	cswtch bool
}

// pipelineWorkload builds a deterministic op mix from seed: demand reads,
// posted write-backs, idle gaps (so dummies and background evictions
// fire), and occasional context switches. Under delayed remap (LLC-D) a
// fetched block is held out of the ORAM until a write evicts it, so reads
// must not repeat a held-out address and writes target held-out blocks —
// the same discipline as TestIssueUniformity. The op stream depends only
// on the scheme and the seed, never on controller state.
func pipelineWorkload(n int, dataBlocks uint64, sch config.Scheme, seed uint64) []pipelineOp {
	r := rng.New(seed)
	heldOut := map[block.ID]bool{}
	var heldList []block.ID
	var ops []pipelineOp
	for i := 0; len(ops) < n; i++ {
		op := pipelineOp{
			addr:   block.ID(r.Uint64n(dataBlocks)),
			gap:    r.Uint64n(4000),
			cswtch: i > 0 && i%400 == 0,
		}
		if op.cswtch {
			ops = append(ops, op)
			continue
		}
		if sch.DelayedRemap {
			if r.Float64() < 0.3 && len(heldList) > 0 {
				v := heldList[r.Intn(len(heldList))]
				if heldOut[v] {
					delete(heldOut, v)
					op.addr, op.write = v, true
					ops = append(ops, op)
					continue
				}
			}
			if heldOut[op.addr] {
				continue // LLC hit in the real system
			}
			heldOut[op.addr] = true
			heldList = append(heldList, op.addr)
		} else {
			op.write = r.Uint64n(5) == 0
		}
		ops = append(ops, op)
	}
	return ops
}

// diffPair is the per-access differential: two controllers built from one
// config and seed, each behind its own issuer. Issuer-driven segments run
// both through the production pipeline and must agree on every completion
// time. Between segments, each direct access goes through pathAccess on a
// and through pathAccessReference (access_reference_test.go) on b, and
// both must return the same (found, foundLevel, done) and leave the same
// F-Stash order.
type diffPair struct {
	isA, isB *Issuer
	a, b     *Controller
	now      uint64
	seed     uint64
	r        *rng.Source // the direct accesses' choices

	// topFinds counts direct accesses that found their target in the
	// on-chip segment, smallFinds those that found a small-tree member.
	topFinds, smallFinds int
}

func newDiffPair(tb testing.TB, cfg config.System, seed uint64) *diffPair {
	tb.Helper()
	p := &diffPair{seed: seed, r: rng.New(seed)}
	for _, c := range []**Controller{&p.a, &p.b} {
		var err error
		*c, err = NewController(cfg, dram.New(cfg.DRAM), rng.New(cfg.Seed))
		if err != nil {
			tb.Fatalf("%s: %v", cfg.Scheme.Name, err)
		}
	}
	p.isA, p.isB = NewIssuer(p.a, nil), NewIssuer(p.b, nil)
	return p
}

// run alternates rounds of an issuer-driven segment of segOps ops and
// accesses direct accesses, comparing the whole state after each round.
// The segments are consecutive slices of one op stream, so LLC-D's
// held-out discipline carries across them.
func (p *diffPair) run(tb testing.TB, rounds, segOps, accesses int) {
	tb.Helper()
	ops := pipelineWorkload(rounds*segOps, p.a.o.DataBlocks(), p.a.cfg.Scheme, p.seed)
	for round := 0; round < rounds; round++ {
		p.segment(tb, ops[round*segOps:(round+1)*segOps])
		for i := 0; i < accesses; i++ {
			p.access(tb, round, i)
		}
		p.compareState(tb, fmt.Sprintf("round %d", round))
	}
}

// segment drives both issuers through the same ops.
func (p *diffPair) segment(tb testing.TB, ops []pipelineOp) {
	tb.Helper()
	nowA, nowB := p.now, p.now
	for i, op := range ops {
		switch {
		case op.cswtch:
			nowA = p.a.ContextSwitch(nowA)
			nowB = p.b.ContextSwitch(nowB)
		case op.write:
			nowA = p.isA.PostWrite(nowA+op.gap, op.addr)
			nowB = p.isB.PostWrite(nowB+op.gap, op.addr)
		default:
			nowA = p.isA.ReadBlock(nowA+op.gap, op.addr)
			nowB = p.isB.ReadBlock(nowB+op.gap, op.addr)
		}
		if nowA != nowB {
			tb.Fatalf("segment op %d (%+v): completion diverges: %d vs %d", i, op, nowA, nowB)
		}
	}
	// The next direct access starts after every issued path drained.
	p.now = max(nowA, p.isA.prevDone)
}

// access runs one direct path access on the main tree or, under ρ, on the
// small tree, with no target, a random block, a block read off the tree's
// top store, or a small-tree member as the target. A target the access
// finds is restashed under a fresh leaf in both controllers, as PathStep
// and rhoDataAccess do.
func (p *diffPair) access(tb testing.TB, round, i int) {
	tb.Helper()
	small := p.a.rho != nil && p.r.Uint64n(2) == 0
	tA, tB := &p.a.pathTree, &p.b.pathTree
	if small {
		tA, tB = &p.a.rho.pathTree, &p.b.rho.pathTree
	}
	leaf, target, ptype := p.pick(tA, small)
	fA, lA, dA := p.a.pathAccess(tA, p.now, leaf, target, ptype)
	fB, lB, dB := p.b.pathAccessReference(tB, p.now, leaf, target, ptype)
	if fA != fB || lA != lB || dA != dB {
		tb.Fatalf("round %d access %d (small %v, leaf %d, target %v): fused (found %v, level %d, done %d), reference (found %v, level %d, done %d)",
			round, i, small, leaf, target, fA, lA, dA, fB, lB, dB)
	}
	if fA && lA < 0 {
		p.topFinds++
	}
	if fA && small {
		p.smallFinds++
	}
	if fA {
		for _, c := range []*Controller{p.a, p.b} {
			if small {
				nl := c.rho.randomLeaf(c.rng)
				c.pm.SetSmall(target, nl)
				c.rho.fstash.Insert(tree.Entry{Addr: target, Leaf: nl})
			} else {
				c.fstash.Insert(tree.Entry{Addr: target, Leaf: c.remap(target)})
			}
		}
	}
	var stashA, stashB []tree.Entry
	tA.fstash.Each(func(e tree.Entry) { stashA = append(stashA, e) })
	tB.fstash.Each(func(e tree.Entry) { stashB = append(stashB, e) })
	if !slices.Equal(stashA, stashB) {
		tb.Fatalf("round %d access %d: F-Stash order diverges:\nfused     %v\nreference %v", round, i, stashA, stashB)
	}
	p.now = dA + p.r.Uint64n(1500)
}

// pick chooses a direct access on tree t from the state of controller a
// (equal to b's until a comparison fails).
func (p *diffPair) pick(t *pathTree, small bool) (block.Leaf, block.ID, block.PathType) {
	c, r := p.a, p.r
	switch r.Uint64n(4) {
	case 0:
		return t.randomLeaf(r), block.Invalid, block.PathEvict
	case 1:
		// A block read off the on-chip segment: the found-in-top case.
		if t.top != nil && t.top.Len() > 0 {
			var held []tree.Entry
			t.top.Each(func(e tree.Entry, _ int, _ uint64) { held = append(held, e) })
			e := held[r.Uint64n(uint64(len(held)))]
			return e.Leaf, e.Addr, block.PathData
		}
	default:
		if small {
			// A small-tree member, wherever it sits.
			if ord := c.rho.order; len(ord) > 0 {
				a := ord[r.Uint64n(uint64(len(ord)))]
				if leaf, ok := c.pm.Small(a); ok {
					return leaf, a, block.PathData
				}
			}
			break
		}
		// Any mapped main-tree block: in the tree, the top store, or off
		// the path in the F-Stash or the PLB. Each one found is remapped,
		// so this case also keeps the stash and the S-Stash under
		// pressure.
		for try := 0; try < 8; try++ {
			a := block.ID(r.Uint64n(c.pm.Total()))
			if c.inSmallTree(a) {
				continue
			}
			if leaf := c.pm.Leaf(a); leaf.Valid() {
				return leaf, a, block.PathData
			}
		}
	}
	return t.randomLeaf(r), block.Invalid, block.PathDummy
}

// compareState compares everything both controllers hold: the DRAM model,
// Stats with its histograms, the position map and PLB, every tree, top
// store and F-Stash, ρ's and Ring's bookkeeping, and CheckInvariants on
// each.
func (p *diffPair) compareState(tb testing.TB, label string) {
	tb.Helper()
	a, b := p.a, p.b
	if !reflect.DeepEqual(a.mem, b.mem) {
		tb.Fatalf("%s: DRAM channel, bank or scratch state diverges", label)
	}
	sa, sb := reflect.ValueOf(a.st).Elem(), reflect.ValueOf(b.st).Elem()
	for i := 0; i < sa.NumField(); i++ {
		if !reflect.DeepEqual(sa.Field(i).Interface(), sb.Field(i).Interface()) {
			tb.Fatalf("%s: Stats.%s diverges:\nfused     %+v\nreference %+v", label,
				sa.Type().Field(i).Name, sa.Field(i).Interface(), sb.Field(i).Interface())
		}
	}
	if !reflect.DeepEqual(a.pm, b.pm) || !reflect.DeepEqual(a.plb, b.plb) {
		tb.Fatalf("%s: position map or PLB diverges", label)
	}
	trees := [][2]*pathTree{{&a.pathTree, &b.pathTree}}
	if a.rho != nil {
		trees = append(trees, [2]*pathTree{&a.rho.pathTree, &b.rho.pathTree})
		ra, rb := a.rho, b.rho
		if ra.members != rb.members || !slices.Equal(ra.order, rb.order) || !slices.Equal(ra.demoteQ, rb.demoteQ) {
			tb.Fatalf("%s: rho bookkeeping diverges", label)
		}
	}
	for n, tt := range trees {
		if !reflect.DeepEqual(tt[0].tr, tt[1].tr) {
			tb.Fatalf("%s: tree %d diverges", label, n)
		}
		if !reflect.DeepEqual(tt[0].top, tt[1].top) {
			tb.Fatalf("%s: top store of tree %d diverges", label, n)
		}
		if !reflect.DeepEqual(tt[0].fstash, tt[1].fstash) {
			tb.Fatalf("%s: F-Stash of tree %d diverges", label, n)
		}
	}
	if !reflect.DeepEqual(a.ring, b.ring) {
		tb.Fatalf("%s: Ring bookkeeping diverges", label)
	}
	if err := a.CheckInvariants(); err != nil {
		tb.Fatalf("%s: fused invariants: %v", label, err)
	}
	if err := b.CheckInvariants(); err != nil {
		tb.Fatalf("%s: reference invariants: %v", label, err)
	}
}

// diffSchemes are the schemes the per-access differential runs: every
// Fig 10 scheme, no tree top at all, and Ring ORAM, whose eviction paths
// run the pipeline on its tree.
func diffSchemes() []config.Scheme {
	return append(config.AllSchemes(),
		config.Scheme{Name: "TopNone", Top: config.TopNone},
		config.RingScheme(),
	)
}

// sStashConflicts returns the S-Stash set-conflict refusals c has drawn,
// or 0 without IR-Stash.
func sStashConflicts(c *Controller) uint64 {
	if irs, ok := c.top.(*stash.IRStash); ok {
		return irs.Conflicts
	}
	return 0
}

// TestFusedPipelineMatchesReference is the per-access differential of
// pathAccess against the multi-walk reference on every scheme at Tiny
// scale (no tree top, the dedicated top, IR-Stash, the IR-Alloc profile,
// ρ's small tree with member targets, and Ring's tree), plus IR-ORAM
// loaded to 80% of its slots, where S-Stash set conflicts refuse blocks
// on most write phases.
func TestFusedPipelineMatchesReference(t *testing.T) {
	type tc struct {
		name string
		cfg  config.System
	}
	var cases []tc
	for _, sch := range diffSchemes() {
		cases = append(cases, tc{sch.Name, config.Tiny().WithScheme(sch)})
	}
	loaded := config.Tiny().WithScheme(config.IROramScheme())
	loaded.ORAM.UserBlocks = loaded.ORAM.Z.Slots() * 8 / 10
	cases = append(cases, tc{"IR-ORAM-80pct", loaded})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p := newDiffPair(t, c.cfg, 7)
			p.run(t, 6, 100, 500)
			if p.a.top != nil && p.topFinds == 0 {
				t.Error("no direct access found its target in the on-chip segment")
			}
			if p.a.rho != nil && p.smallFinds == 0 {
				t.Error("no direct access found a small-tree member")
			}
			if c.name == "IR-ORAM-80pct" {
				if n := sStashConflicts(p.a); n < 10000 {
					t.Errorf("%d S-Stash set-conflict refusals, want at least 10,000", n)
				}
			}
			t.Logf("%d found in the on-chip segment, %d small-tree members found, %d S-Stash refusals",
				p.topFinds, p.smallFinds, sStashConflicts(p.a))
		})
	}
}

// FuzzPathAccessDifferential draws a scheme, a load up to what
// config.Validate accepts and an op seed, and runs a few hundred accesses
// through both pipelines (diffPair).
func FuzzPathAccessDifferential(f *testing.F) {
	f.Add(uint8(0), uint16(32768), uint64(1))
	f.Add(uint8(5), uint16(60000), uint64(2)) // IR-ORAM near Validate's bound
	f.Add(uint8(1), uint16(0), uint64(3))     // ρ at the default load
	f.Fuzz(func(t *testing.T, scheme uint8, load uint16, seed uint64) {
		schemes := diffSchemes()
		cfg := config.Tiny().WithScheme(schemes[int(scheme)%len(schemes)])
		// load/65536 of 95% of the slots; 0 keeps the 50% default.
		cfg.ORAM.UserBlocks = cfg.ORAM.Z.Slots() * 95 / 100 * uint64(load) / 65536
		if cfg.Validate() != nil {
			return
		}
		newDiffPair(t, cfg, seed).run(t, 2, 50, 150)
	})
}
