package flight

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestNilRecorderInert(t *testing.T) {
	var r *Recorder
	r.SampleAccess()
	if r.SampleRequest() {
		t.Error("nil recorder sampled a request")
	}
	if r.Armed() {
		t.Error("nil recorder armed")
	}
	r.Record(Event{Kind: KindAccess})
	r.Disarm()
	if r.Recorded() != 0 || r.Dropped() != 0 || r.Len() != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.Snapshot() != nil {
		t.Error("nil recorder snapshot not nil")
	}
}

func TestRingWrapDrop(t *testing.T) {
	r := New(4, 1)
	for i := uint64(0); i < 10; i++ {
		r.Record(Event{Start: i, Kind: KindAccess})
	}
	if got := r.Recorded(); got != 10 {
		t.Errorf("Recorded = %d, want 10", got)
	}
	if got := r.Dropped(); got != 6 {
		t.Errorf("Dropped = %d, want 6", got)
	}
	if got := r.Len(); got != 4 {
		t.Errorf("Len = %d, want 4", got)
	}
	tr := r.Snapshot()
	if len(tr.Events) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(tr.Events))
	}
	for i, e := range tr.Events {
		if want := uint64(6 + i); e.Start != want {
			t.Errorf("event %d Start = %d, want %d (oldest-first after wrap)",
				i, e.Start, want)
		}
	}
	if tr.Recorded != 10 || tr.Dropped != 6 {
		t.Errorf("trace accounting = (%d recorded, %d dropped), want (10, 6)",
			tr.Recorded, tr.Dropped)
	}
}

func TestSnapshotBeforeWrap(t *testing.T) {
	r := New(8, 1)
	for i := uint64(0); i < 3; i++ {
		r.Record(Event{Start: i})
	}
	tr := r.Snapshot()
	if len(tr.Events) != 3 || tr.Dropped != 0 {
		t.Fatalf("snapshot = %d events, %d dropped; want 3, 0",
			len(tr.Events), tr.Dropped)
	}
	for i, e := range tr.Events {
		if e.Start != uint64(i) {
			t.Errorf("event %d Start = %d, want %d", i, e.Start, i)
		}
	}
}

func TestSamplingPattern(t *testing.T) {
	r := New(16, 3)
	var armed []int
	for i := 0; i < 10; i++ {
		r.SampleAccess()
		if r.Armed() {
			armed = append(armed, i)
		}
		r.Disarm()
	}
	want := []int{0, 3, 6, 9}
	if !reflect.DeepEqual(armed, want) {
		t.Errorf("armed accesses = %v, want %v", armed, want)
	}
	if got := r.SampledAccesses(); got != 4 {
		t.Errorf("SampledAccesses = %d, want 4", got)
	}
	if r.sampleEvery != 3 {
		t.Errorf("sampleEvery = %d, want 3", r.sampleEvery)
	}
}

func TestSampleRequestIndependentCounter(t *testing.T) {
	r := New(16, 2)
	// Interleave accesses; request sampling must follow its own 1-in-N.
	var got []bool
	for i := 0; i < 5; i++ {
		r.SampleAccess()
		got = append(got, r.SampleRequest())
	}
	want := []bool{true, false, true, false, true}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("request samples = %v, want %v", got, want)
	}
}

// drive records a deterministic mixed workload and returns the snapshot.
func drive(r *Recorder) *Trace {
	for i := uint64(0); i < 40; i++ {
		r.SampleAccess()
		if r.Armed() {
			r.Record(Event{Start: i * 10, End: i*10 + 7, Arg: i, Kind: KindAccess, Sub: uint8(i % 6)})
			r.Record(Event{Start: i * 10, End: i*10 + 4, Kind: KindPhaseRead, Sub: uint8(i % 6)})
			r.Record(Event{Start: i*10 + 4, End: i*10 + 6, Arg: i % 3, Aux: 4,
				Kind: KindDramRun, Sub: uint8(i % 2), Ch: uint16(i % 2), Bank: uint16(i % 4)})
		}
		r.Disarm()
	}
	return r.Snapshot()
}

func TestSamplingDeterminism(t *testing.T) {
	a := drive(New(32, 4))
	b := drive(New(32, 4))
	if !reflect.DeepEqual(a, b) {
		t.Error("identical workloads produced different traces")
	}
}

func TestKindStrings(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind should stringify as unknown")
	}
}

func exportOnce(t *testing.T) []byte {
	t.Helper()
	tr := drive(New(64, 2))
	// Add the event kinds drive does not produce so render is covered.
	tr.Events = append(tr.Events,
		Event{Start: 500, End: 520, Arg: 9, Aux: 3, Kind: KindRequest},
		Event{Start: 500, End: 510, Kind: KindPhaseDecrypt, Sub: 1},
		Event{Start: 510, End: 530, Kind: KindPhaseWrite, Sub: 1},
		Event{Start: 530, End: 540, Aux: 11, Kind: KindDramDrain, Ch: 1},
		Event{Start: 540, Arg: 12, Aux: 2, Kind: KindOccupancy},
	)
	var buf bytes.Buffer
	if err := Write(&buf, []Process{{Name: "cell-a", Trace: tr}, {Name: "empty"}}); err != nil {
		t.Fatalf("Write: %v", err)
	}
	return buf.Bytes()
}

func TestExportDeterministicAndValidJSON(t *testing.T) {
	a := exportOnce(t)
	b := exportOnce(t)
	if !bytes.Equal(a, b) {
		t.Error("repeated exports of the same trace differ")
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(a, &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ns" {
		t.Errorf("displayTimeUnit = %q, want ns", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("export holds no events")
	}
	if doc.TraceEvents[0].Name != "process_name" || doc.TraceEvents[0].Ph != "M" {
		t.Errorf("first event = %+v, want process_name metadata", doc.TraceEvents[0])
	}
	// The empty second process must still announce itself.
	last := doc.TraceEvents[len(doc.TraceEvents)-1]
	if last.Name != "process_name" || last.Pid != 2 {
		t.Errorf("trailing event = %+v, want pid-2 process_name", last)
	}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" && e.Ph != "X" && e.Ph != "C" {
			t.Errorf("unexpected phase %q", e.Ph)
		}
		if e.Pid < 1 || e.Pid > 2 {
			t.Errorf("event pid %d out of range", e.Pid)
		}
	}
}
