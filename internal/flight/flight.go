// Package flight is the cycle-domain flight recorder: a fixed-capacity,
// ring-buffered event tracer that captures per-access spans (request
// arrival through path read, decrypt, eviction and posted writeback,
// tagged with path type and leaf), per-channel DRAM run service events
// (row hits and misses from the run-length path), and stash/write-queue
// occupancy samples.
//
// The recorder is built for the repo's two standing contracts:
//
//   - Zero allocation when disabled. A nil *Recorder is a valid, inert
//     recorder: every method on it is a cheap branch, so the simulator
//     keeps its 0 allocs/op hot path when tracing is off. When enabled,
//     recording writes into a preallocated ring and still allocates
//     nothing per event.
//
//   - Determinism. Sampling is 1-in-N by access count — no time, no
//     randomness — so the same (config, seed, sample) triple yields a
//     byte-identical trace. The ring drops the oldest events on overflow
//     and counts drops; drop counters surface as `flight_*` metrics.
//
// Snapshot converts the ring into an immutable Trace; export.go renders
// traces as Chrome trace-event JSON loadable in Perfetto.
package flight

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindAccess spans one whole path access (arrival to on-chip done),
	// Sub = path type, Arg = leaf.
	KindAccess Kind = iota
	// KindPhaseRead spans the DRAM read burst of a path access
	// (arrival to read-done), Sub = path type.
	KindPhaseRead
	// KindPhaseDecrypt spans the on-chip gather/decrypt/evict latency
	// after the read burst (read-done to done), Sub = path type.
	KindPhaseDecrypt
	// KindPhaseWrite spans the posted writeback burst (read-done to
	// write-done); it overlaps subsequent work, Sub = path type.
	KindPhaseWrite
	// KindRequest spans one demand request through the issuer (arrival
	// to completion), Arg = block address, Aux = cycles spent waiting
	// for pacing slots (queue wait).
	KindRequest
	// KindDramRun records one run serviced by the run-length DRAM path:
	// Arg = row, Aux = blocks in the run, Ch/Bank the target bank,
	// Sub = 1 when the run opened on a row hit, 0 on a row miss.
	KindDramRun
	// KindDramDrain records one channel's share of a posted write burst:
	// Aux = blocks drained, Ch = channel.
	KindDramDrain
	// KindOccupancy samples on-chip queue depths at an issue slot:
	// Arg = stash occupancy, Aux = posted-write queue depth.
	KindOccupancy

	numKinds
)

var kindNames = [numKinds]string{
	"access", "read", "decrypt", "writeback",
	"request", "dram_run", "dram_drain", "occupancy",
}

// String names the kind for the analyzer and export layers.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Event is one cycle-stamped trace event. All fields are plain integers
// so the ring is a flat allocation and events copy by value.
type Event struct {
	// Start and End bound the span in simulated cycles. Counter-style
	// events (KindOccupancy) use Start only.
	Start, End uint64
	// Arg and Aux carry kind-specific payloads (leaf, address, row,
	// run length, queue wait, occupancy) — see the Kind constants.
	Arg, Aux uint64
	// Kind classifies the event; Sub sub-classifies it (path type for
	// access/phase events, hit flag for DRAM runs).
	Kind Kind
	Sub  uint8
	// Ch and Bank locate DRAM events.
	Ch, Bank uint16
}

// DefaultCapacity is the ring size used when callers pass 0: large
// enough to hold several thousand sampled accesses' worth of spans
// without growing, small enough (≈0.8 MB) to attach per cell.
const DefaultCapacity = 16384

// Recorder collects events into a fixed ring with 1-in-N access
// sampling. The zero value is unusable; construct with New. A nil
// *Recorder is valid and inert: all methods no-op (and Armed reports
// false), so call sites need no separate enabled flag.
//
// Recorder is not safe for concurrent use; attach one recorder per
// sim.System, matching the engine's one-goroutine-per-System rule.
type Recorder struct {
	ring []Event
	head uint64 // total events ever recorded; ring index = head % cap

	sampleEvery uint64 // record 1 in N path accesses
	accesses    uint64 // path accesses seen (sampled or not)
	requests    uint64 // demand requests seen
	sampled     uint64 // path accesses that armed the recorder
	armed       bool
}

// New builds a recorder with the given ring capacity (0 means
// DefaultCapacity) recording one in sampleEvery path accesses
// (0 and 1 both mean every access).
func New(capacity int, sampleEvery uint64) *Recorder {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	if sampleEvery == 0 {
		sampleEvery = 1
	}
	return &Recorder{ring: make([]Event, capacity), sampleEvery: sampleEvery}
}

// SampleAccess counts one path access and arms the recorder iff this
// access is the 1-in-N sample. Call once at the top of each path
// access, before any Record; the armed state persists until Disarm.
func (r *Recorder) SampleAccess() {
	if r == nil {
		return
	}
	r.accesses++
	r.armed = (r.accesses-1)%r.sampleEvery == 0
	if r.armed {
		r.sampled++
	}
}

// SampleRequest counts one demand request and reports whether it is the
// 1-in-N sample; request spans use their own counter so request-level
// sampling stays aligned even though one request spans many accesses.
func (r *Recorder) SampleRequest() bool {
	if r == nil {
		return false
	}
	r.requests++
	return (r.requests-1)%r.sampleEvery == 0
}

// Armed reports whether the current path access is being traced.
func (r *Recorder) Armed() bool { return r != nil && r.armed }

// Disarm ends the current access's tracing window. The issuer calls it
// when it accounts the finished slot (one path access per issue slot).
func (r *Recorder) Disarm() {
	if r != nil {
		r.armed = false
	}
}

// Record appends one event, overwriting the oldest when the ring is
// full. It does not check Armed — callers gate on it so un-sampled
// accesses pay only the branch.
func (r *Recorder) Record(e Event) {
	if r == nil {
		return
	}
	r.ring[r.head%uint64(len(r.ring))] = e
	r.head++
}

// Recorded returns the total events recorded, including dropped ones.
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.head
}

// Dropped returns how many events the ring has overwritten.
func (r *Recorder) Dropped() uint64 {
	if r == nil || r.head <= uint64(len(r.ring)) {
		return 0
	}
	return r.head - uint64(len(r.ring))
}

// SampledAccesses returns how many path accesses armed the recorder.
func (r *Recorder) SampledAccesses() uint64 {
	if r == nil {
		return 0
	}
	return r.sampled
}

// Len returns the number of events currently held.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.head < uint64(len(r.ring)) {
		return int(r.head)
	}
	return len(r.ring)
}

// Trace is an immutable snapshot of a recorder: the retained events in
// record order plus the drop accounting needed to judge coverage.
type Trace struct {
	// Events holds the retained events, oldest first.
	Events []Event
	// Recorded and Dropped mirror the recorder's totals at snapshot
	// time; Events holds the last Recorded-Dropped of them.
	Recorded, Dropped uint64
	// SampledAccesses and SampleEvery document the sampling that
	// produced the trace.
	SampledAccesses, SampleEvery uint64
}

// Snapshot copies the ring into an immutable Trace, oldest event first.
// A nil recorder snapshots to nil.
func (r *Recorder) Snapshot() *Trace {
	if r == nil {
		return nil
	}
	n := r.Len()
	ev := make([]Event, n)
	if r.head <= uint64(len(r.ring)) {
		copy(ev, r.ring[:n])
	} else {
		// Ring has wrapped: oldest event lives at head % cap.
		start := int(r.head % uint64(len(r.ring)))
		m := copy(ev, r.ring[start:])
		copy(ev[m:], r.ring[:start])
	}
	return &Trace{
		Events:          ev,
		Recorded:        r.head,
		Dropped:         r.Dropped(),
		SampledAccesses: r.sampled,
		SampleEvery:     r.sampleEvery,
	}
}
