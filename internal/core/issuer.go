package core

import (
	"iroram/internal/block"
	"iroram/internal/flight"
)

// DWBSource is what IR-DWB needs from the LLC: the Ptr-register candidate
// search and the ability to check and clear a line's dirty-LRU status. The
// simulator implements it over the LLC model; addresses are data block IDs.
type DWBSource interface {
	// FindCandidate returns the next dirty LRU line, honoring the paper's
	// round-robin scan and 1000-cycle back-off.
	FindCandidate(now uint64) (addr uint64, ok bool)
	// StillCandidate reports whether the line is still the dirty LRU entry
	// of its set (the abort condition).
	StillCandidate(addr uint64) bool
	// MarkClean clears the line's dirty bit after the write-back completes.
	MarkClean(addr uint64) bool
}

// Issuer schedules path accesses under the paper's timing-channel defence:
// the controller serializes path accesses (a new one starts only when the
// previous one finished), and whenever it would otherwise sit idle for T
// cycles, a dummy path is issued — so outside the TCB there is never a gap
// longer than max(T, one path service time) from which request presence
// could be inferred, and every access looks identical.
//
// Work eligible for an issue, in priority order: background eviction (stash
// pressure is a correctness concern), the waiting demand step, posted
// writes, IR-DWB conversions, and pure dummies. Under ρ the issue sequence
// additionally follows the fixed main:small pattern.
type Issuer struct {
	c *Controller
	t uint64

	// prevDone is when the last issued path finished; the next one may not
	// start earlier (the controller is serial).
	prevDone uint64
	// lastIssue is when the last path was issued; lastIssue+T is the dummy
	// deadline.
	lastIssue  uint64
	haveIssued bool
	slotIdx    uint64

	writeQ    []Job
	maxWriteQ int

	dwbSrc    DWBSource
	dwbStage  int
	dwbTarget block.ID
}

// NewIssuer wires an issuer to c. dwbSrc may be nil; it is only consulted
// when the scheme enables IR-DWB.
func NewIssuer(c *Controller, dwbSrc DWBSource) *Issuer {
	is := &Issuer{
		c:         c,
		t:         c.o.IntervalT,
		maxWriteQ: c.cfg.CPU.WriteQueueDepth,
	}
	if c.cfg.Scheme.DWB {
		is.dwbSrc = dwbSrc
	}
	return is
}

// earliestIssue returns the first cycle at or after now the controller may
// issue a path.
func (is *Issuer) earliestIssue(now uint64) uint64 {
	if is.prevDone > now {
		return is.prevDone
	}
	return now
}

// record audits the obliviousness property this defence provides: no issue
// may start later than both the dummy deadline and the previous path's
// completion (the controller must never have been observably idle).
func (is *Issuer) record(slot uint64) {
	st := is.c.st
	st.PathsIssued++
	st.QueueDepth.Observe(uint64(len(is.writeQ)))
	// One path access per issue slot: if this slot's access armed the
	// flight recorder, sample the on-chip queue depths alongside it and
	// close the access's tracing window.
	if fl := is.c.fl; fl.Armed() {
		fl.Record(flight.Event{Start: slot, Arg: uint64(is.c.StashLen()),
			Aux: uint64(len(is.writeQ)), Kind: flight.KindOccupancy})
		fl.Disarm()
	}
	if is.t > 0 && is.haveIssued {
		limit := is.lastIssue + is.t
		if is.prevDone > limit {
			limit = is.prevDone
		}
		if slot > limit {
			st.NonUniformIssues++
		}
	}
	is.lastIssue = slot
	is.haveIssued = true
	is.slotIdx++
	if st.EpochInterval > 0 && st.PathsIssued%st.EpochInterval == 0 {
		st.Epochs = append(st.Epochs, Epoch{
			Paths:    st.PathsIssued,
			Cycle:    slot,
			ByType:   st.Paths.Paths,
			Served:   st.ServedRequests,
			StashLen: is.c.StashLen(),
		})
	}
}

// finish notes the completion time of the path issued last.
func (is *Issuer) finish(done uint64) {
	if done > is.prevDone {
		is.prevDone = done
	}
}

// drainFreeWrites completes queued writes that need no path access (stash
// content updates, LLC-D reinserts with resident PosMap entries). These
// consume no issue.
func (is *Issuer) drainFreeWrites(now uint64) {
	is.drainDemotions()
	for len(is.writeQ) > 0 {
		served, _ := is.c.ServeOnChip(now, is.writeQ[0])
		if !served {
			return
		}
		is.writeQ = is.writeQ[1:]
	}
}

// AdvanceTo simulates the controller up to cycle now with no demand read
// waiting: pending background work (eviction pressure, posted writes)
// issues back-to-back, and idle stretches are broken by dummies every T
// cycles. Without timing protection only the real work runs.
func (is *Issuer) AdvanceTo(now uint64) {
	is.drainFreeWrites(now)
	prevStash := -1
	for {
		if is.c.StashOverfull() || len(is.writeQ) > 0 {
			if len(is.writeQ) == 0 {
				if is.c.StashLen() == prevStash {
					break // eviction is not making progress; yield
				}
				prevStash = is.c.StashLen()
			} else {
				prevStash = -1
			}
			t := is.earliestIssue(0)
			if t > now {
				return
			}
			is.issueBackground(t)
			is.drainFreeWrites(is.prevDone)
			continue
		}
		prevStash = -1
		if is.t == 0 {
			return
		}
		// Idle: the next dummy is due T after the last issue, but never
		// before the previous path drained.
		d := is.lastIssue + is.t
		if t := is.earliestIssue(0); t > d {
			d = t
		}
		if d > now {
			return
		}
		is.issueBackground(d)
	}
}

// issueBackground performs one background path access at time slot.
func (is *Issuer) issueBackground(slot uint64) {
	if is.c.rho != nil && is.rhoSlotSmall() {
		done := is.c.rhoBackgroundSlot(slot)
		is.record(slot)
		is.finish(done)
		return
	}
	done := is.backgroundWork(slot)
	is.record(slot)
	is.finish(done)
}

// backgroundWork performs one path access worth of background work at time
// slot and returns its completion time.
func (is *Issuer) backgroundWork(slot uint64) uint64 {
	if is.c.StashOverfull() {
		return is.c.backgroundEvict(slot)
	}
	is.drainFreeWrites(slot)
	if len(is.writeQ) > 0 {
		return is.writeStep(slot)
	}
	if done, ok := is.tryDWB(slot); ok {
		return done
	}
	return is.c.dummyPath(slot)
}

// writeStep performs one path access toward the posted write at the head
// of the queue and returns its completion time.
func (is *Issuer) writeStep(slot uint64) uint64 {
	completed, done := is.c.PathStep(slot, is.writeQ[0])
	if completed {
		is.writeQ = is.writeQ[1:]
	}
	return done
}

// maxEvictRun caps consecutive eviction issues ahead of other work, so a
// pathologically full stash (e.g. an over-aggressive IR-Alloc profile on a
// random trace, or a tree loaded near capacity) degrades to slow progress
// instead of livelock.
const maxEvictRun = 16

// tryDWB converts the dummy issue into an early write-back step when a
// candidate is in flight or can be found (Section IV-D).
func (is *Issuer) tryDWB(slot uint64) (done uint64, ok bool) {
	if is.dwbSrc == nil {
		return 0, false
	}
	proactive := is.c.cfg.Scheme.ProactiveRemap
	if is.dwbStage == 0 {
		addr, found := is.dwbSrc.FindCandidate(slot)
		if !found {
			return 0, false
		}
		is.dwbTarget = block.ID(addr)
		is.dwbStage = is.c.dwbStage(is.dwbTarget)
		if proactive && is.dwbStage == 1 {
			// PosMap state already resident: the eviction is already
			// free; nothing to prefetch for this candidate.
			is.dwbStage = 0
			return 0, false
		}
	} else if !is.dwbSrc.StillCandidate(uint64(is.dwbTarget)) {
		// The pointed entry was touched or evicted: abort (Stage=0) and
		// let this issue carry a pure dummy.
		is.dwbStage = 0
		is.c.st.DWBAborted++
		return 0, false
	}
	stage, done, usedPath := is.c.dwbStep(slot, is.dwbTarget, is.dwbStage)
	is.dwbStage = stage
	if proactive && stage == 1 {
		// Future-work mode (Section IV-D): the dummy slots prefetch the
		// candidate's PosMap blocks only — the data block stays in the
		// LLC (it is not even in the tree under LLC-D). Done.
		is.dwbStage = 0
		is.c.st.ProactiveRemaps++
	} else if stage == 0 {
		is.dwbSrc.MarkClean(uint64(is.dwbTarget))
		is.c.st.DWBCompleted++
	}
	if !usedPath {
		// The stage completed on-chip; this issue still needs a path.
		return 0, false
	}
	is.c.st.DWBConverted++
	return done, true
}

// demandSlot returns the time the waiting demand step may issue, first
// running anything that outranks it (background eviction, and under ρ the
// other tree's turns in the fixed pattern).
func (is *Issuer) demandSlot(now uint64, j Job) uint64 {
	is.AdvanceTo(now)
	evictions := 0
	for {
		slot := is.earliestIssue(now)
		if is.c.StashOverfull() && evictions < maxEvictRun {
			evictions++
			done := is.c.backgroundEvict(slot)
			is.record(slot)
			is.finish(done)
			continue
		}
		if is.c.rho != nil && is.rhoSlotSmall() != is.c.inSmallTree(j.Addr) {
			// Wrong turn in the fixed main:small issue pattern; it cannot
			// be violated, so this turn carries background work.
			var done uint64
			if is.rhoSlotSmall() {
				done = is.c.rhoBackgroundSlot(slot)
			} else {
				done = is.backgroundWork(slot)
			}
			is.record(slot)
			is.finish(done)
			continue
		}
		return slot
	}
}

// ReadBlock services a demand read miss for data block addr arriving at
// cycle now. It returns the completion cycle. The call simulates everything
// the controller would have done in between — dummy insertion, posted-write
// draining, IR-DWB conversion — exactly as in hardware.
func (is *Issuer) ReadBlock(now uint64, addr block.ID) uint64 {
	// Request spans have their own 1-in-N counter (one request spans many
	// path accesses); sampled ones additionally accumulate the cycles the
	// demand steps spent waiting for pacing slots.
	if !is.c.fl.SampleRequest() {
		return is.readBlock(now, addr, nil)
	}
	var wait uint64
	done := is.readBlock(now, addr, &wait)
	is.c.fl.Record(flight.Event{Start: now, End: done, Arg: uint64(addr),
		Aux: wait, Kind: flight.KindRequest})
	return done
}

// readBlock is ReadBlock's engine; wait, when non-nil, accumulates the
// cycles the demand steps spent queued behind pacing slots.
func (is *Issuer) readBlock(now uint64, addr block.ID, wait *uint64) uint64 {
	j := Job{Addr: addr}
	is.AdvanceTo(now)
	if is.readForWQ(addr) {
		// Store-buffer forward: the block is parked in the posted-write
		// queue (LLC-D reinsert or ρ demotion in flight).
		is.c.st.StashHits++
		is.c.st.ServedRequests++
		return now + is.c.o.OnChipLatency
	}
	t := now
	for {
		if served, done := is.c.ServeOnChip(t, j); served {
			return done
		}
		slot := is.demandSlot(t, j)
		if wait != nil && slot > t {
			*wait += slot - t
		}
		// Work run while waiting may have changed the block's state (a ρ
		// install may have demoted it into the write queue, a PLB fill may
		// have made it servable on-chip), so re-check before spending a
		// path access.
		if is.readForWQ(addr) {
			is.c.st.StashHits++
			is.c.st.ServedRequests++
			return slot + is.c.o.OnChipLatency
		}
		if served, done := is.c.ServeOnChip(slot, j); served {
			return done
		}
		completed, done := is.c.PathStep(slot, j)
		is.record(slot)
		is.finish(done)
		t = done
		if completed {
			return done
		}
	}
}

// PostWrite enqueues a write-back (dirty eviction, or any eviction under
// LLC-D) at cycle now. If the posted-write queue is full the core stalls;
// the returned cycle is when the CPU may proceed (now when no stall).
func (is *Issuer) PostWrite(now uint64, addr block.ID) uint64 {
	is.AdvanceTo(now)
	is.writeQ = append(is.writeQ, Job{Addr: addr, Write: true})
	t := now
	evictions := 0
	for len(is.writeQ) > is.maxWriteQ {
		slot := is.earliestIssue(t)
		evict := is.c.StashOverfull() && (is.c.rho == nil || !is.rhoSlotSmall())
		switch {
		case evict && evictions == maxEvictRun:
			// Serve the queue head instead of a further eviction, as
			// demandSlot lets a demand step through, so a stash that
			// eviction cannot drain does not stall the core forever.
			done := is.writeStep(slot)
			is.record(slot)
			is.finish(done)
			evictions = 0
		case evict:
			evictions++
			is.issueBackground(slot)
		default:
			is.issueBackground(slot)
		}
		t = is.prevDone
		is.drainFreeWrites(t)
	}
	return t
}

// readForWQ reports whether addr is parked in the posted-write queue, in
// which case a read is forwarded from the queue (store-buffer forwarding).
// Pending ρ demotions are folded in first so a just-demoted block is found.
func (is *Issuer) readForWQ(addr block.ID) bool {
	is.drainDemotions()
	for _, j := range is.writeQ {
		if j.Addr == addr {
			return true
		}
	}
	return false
}
