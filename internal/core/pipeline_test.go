package core

import (
	"reflect"
	"slices"
	"testing"

	"iroram/internal/block"
	"iroram/internal/config"
	"iroram/internal/dram"
	"iroram/internal/rng"
	"iroram/internal/tree"
)

// pipelineOp is one step of the lockstep differential workload.
type pipelineOp struct {
	addr   block.ID
	write  bool
	gap    uint64
	cswtch bool
}

// pipelineWorkload builds a deterministic op mix: demand reads, posted
// write-backs, idle gaps (so dummies and background evictions fire), and
// occasional context switches. Under delayed remap (LLC-D) a fetched block
// is held out of the ORAM until a write evicts it, so reads must not
// repeat a held-out address and writes target held-out blocks — the same
// discipline as TestIssueUniformity. The op stream depends only on the
// scheme, never on controller state, so both pipelines replay it exactly.
func pipelineWorkload(n int, dataBlocks uint64, sch config.Scheme) []pipelineOp {
	r := rng.New(42)
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

// occupied counts the real blocks held by t's tree, top store and F-Stash.
func (t *pathTree) occupied() uint64 {
	n := t.tr.Occupied() + uint64(t.fstash.Len())
	if t.top != nil {
		n += uint64(t.top.Len())
	}
	return n
}

// pipelineSystem builds one controller + issuer for the differential run.
func pipelineSystem(t *testing.T, sch config.Scheme, ref bool) (*Issuer, *Controller) {
	t.Helper()
	cfg := config.Tiny().WithScheme(sch)
	mem := dram.New(cfg.DRAM)
	c, err := NewController(cfg, mem, rng.New(cfg.Seed))
	if err != nil {
		t.Fatal(err)
	}
	c.refPipeline = ref
	return NewIssuer(c, nil), c
}

// comparePipelines drives two systems through the same workload in
// lockstep and fails on the first divergence in completion times, then on
// any difference in statistics, DRAM state, stash contents (including
// storage order, which sets DrainForPath's visit order), or tree
// occupancy.
func comparePipelines(t *testing.T, label string, isA, isB *Issuer, cA, cB *Controller) {
	t.Helper()
	ops := pipelineWorkload(1200, cA.o.DataBlocks(), cA.cfg.Scheme)
	nowA, nowB := uint64(0), uint64(0)
	for i, op := range ops {
		if op.cswtch {
			nowA = cA.ContextSwitch(nowA)
			nowB = cB.ContextSwitch(nowB)
		} else if op.write {
			nowA = isA.PostWrite(nowA+op.gap, op.addr)
			nowB = isB.PostWrite(nowB+op.gap, op.addr)
		} else {
			nowA = isA.ReadBlock(nowA+op.gap, op.addr)
			nowB = isB.ReadBlock(nowB+op.gap, op.addr)
		}
		if nowA != nowB {
			t.Fatalf("%s: op %d (%+v): completion diverges: %d vs %d", label, i, op, nowA, nowB)
		}
	}

	if sa, sb := cA.mem.Stats(), cB.mem.Stats(); sa != sb {
		t.Fatalf("%s: DRAM stats diverge:\nA %+v\nB %+v", label, sa, sb)
	}
	if !reflect.DeepEqual(cA.mem, cB.mem) {
		t.Fatalf("%s: DRAM channel, bank or scratch state diverges", label)
	}

	type scalars struct {
		paths                    [block.NumPathTypes]uint64
		blocksRead, blocksWrit   uint64
		stashHits, sstash, top   uint64
		posPaths, plbHit, plbMis uint64
		bgEv, bgEvCycles, dummy  uint64
		dwbConv, dwbDone, dwbAb  uint64
		served, cswitches        uint64
		readCyc, writeCyc        uint64
	}
	grab := func(c *Controller) scalars {
		return scalars{
			paths:      c.st.Paths.Paths,
			blocksRead: c.st.Paths.BlocksRead, blocksWrit: c.st.Paths.BlocksWrit,
			stashHits: c.st.StashHits, sstash: c.st.SStashHits, top: c.st.TopHits,
			posPaths: c.st.PosMapPaths, plbHit: c.st.PLBHits, plbMis: c.st.PLBMisses,
			bgEv: c.st.BgEvictions, bgEvCycles: c.st.BgEvictionCycles, dummy: c.st.DummyPaths,
			dwbConv: c.st.DWBConverted, dwbDone: c.st.DWBCompleted, dwbAb: c.st.DWBAborted,
			served: c.st.ServedRequests, cswitches: c.st.ContextSwitches,
			readCyc: c.st.PhaseReadCycles, writeCyc: c.st.PhaseWriteBackCycles,
		}
	}
	if ga, gb := grab(cA), grab(cB); ga != gb {
		t.Fatalf("%s: controller stats diverge:\nA %+v\nB %+v", label, ga, gb)
	}
	compareHist := func(name string, a, b []uint64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: %s diverges at level %d: %d vs %d", label, name, i, a[i], b[i])
			}
		}
	}
	compareHist("HitLevels", cA.st.HitLevels.Counts, cB.st.HitLevels.Counts)
	compareHist("MigrationFetched", cA.st.MigrationFetched.Counts, cB.st.MigrationFetched.Counts)
	compareHist("MigrationPreexisting", cA.st.MigrationPreexisting.Counts, cB.st.MigrationPreexisting.Counts)

	var entA, entB []tree.Entry
	cA.fstash.Each(func(e tree.Entry) { entA = append(entA, e) })
	cB.fstash.Each(func(e tree.Entry) { entB = append(entB, e) })
	if len(entA) != len(entB) {
		t.Fatalf("%s: stash length %d vs %d", label, len(entA), len(entB))
	}
	for i := range entA {
		if entA[i] != entB[i] {
			t.Fatalf("%s: stash storage order diverges at %d: %+v vs %+v", label, i, entA[i], entB[i])
		}
	}
	if ua, ub := cA.tr.Utilization(), cB.tr.Utilization(); !slices.Equal(ua, ub) {
		t.Fatalf("%s: tree level utilization %v vs %v", label, ua, ub)
	}
	if cA.rho != nil {
		if oa, ob := cA.rho.occupied(), cB.rho.occupied(); oa != ob {
			t.Fatalf("%s: rho occupancy %d vs %d", label, oa, ob)
		}
	}
	if err := cA.CheckInvariants(); err != nil {
		t.Fatalf("%s: fused invariants: %v", label, err)
	}
	if err := cB.CheckInvariants(); err != nil {
		t.Fatalf("%s: reference invariants: %v", label, err)
	}
}

// TestFusedPipelineMatchesReference pins the fused single-walk pipeline
// (one run list for both DRAM phases + one gather walk) against the
// retained multi-walk reference (access_reference.go), which builds a run
// list per phase, across every scheme: identical completion times for
// every request, identical statistics, DRAM state, stash storage order and
// tree occupancy.
func TestFusedPipelineMatchesReference(t *testing.T) {
	schemes := append(config.AllSchemes(),
		config.Scheme{Name: "TopNone", Top: config.TopNone},
		config.RingScheme(),
	)
	for _, sch := range schemes {
		sch := sch
		t.Run(sch.Name, func(t *testing.T) {
			isA, cA := pipelineSystem(t, sch, false)
			isB, cB := pipelineSystem(t, sch, true)
			comparePipelines(t, "fused-vs-reference", isA, isB, cA, cB)
		})
	}
}
