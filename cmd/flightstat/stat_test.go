package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strings"
	"testing"

	"iroram/internal/flight"
)

// exportTrace records a known event set and returns the exporter's
// trace-event document.
func exportTrace(t testing.TB) []byte {
	t.Helper()
	rec := flight.New(64, 1)
	rec.SampleAccess()
	rec.Record(flight.Event{Start: 0, End: 200, Arg: 42, Aux: 50, Kind: flight.KindRequest})
	rec.Record(flight.Event{Start: 0, End: 100, Kind: flight.KindPhaseRead, Sub: 0})
	rec.Record(flight.Event{Start: 100, End: 160, Kind: flight.KindPhaseWrite, Sub: 0})
	rec.Record(flight.Event{Start: 100, End: 130, Kind: flight.KindPhaseDecrypt, Sub: 0})
	rec.Record(flight.Event{Start: 0, End: 130, Arg: 7, Kind: flight.KindAccess, Sub: 0})
	rec.Record(flight.Event{Start: 5, End: 60, Arg: 3, Aux: 4, Kind: flight.KindDramRun, Sub: 1, Ch: 0, Bank: 2})
	rec.Record(flight.Event{Start: 60, End: 90, Arg: 4, Aux: 2, Kind: flight.KindDramRun, Sub: 0, Ch: 1})
	rec.Record(flight.Event{Start: 90, End: 95, Aux: 6, Kind: flight.KindDramDrain, Ch: 0})
	rec.Record(flight.Event{Start: 130, Arg: 9, Aux: 3, Kind: flight.KindOccupancy})

	var buf bytes.Buffer
	if err := flight.Write(&buf, []flight.Process{{Name: "t/x", Trace: rec.Snapshot()}}); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// exportEvents returns exportTrace's document as a parsed event stream.
func exportEvents(t *testing.T) []event {
	t.Helper()
	var doc traceDoc
	if err := json.Unmarshal(exportTrace(t), &doc); err != nil {
		t.Fatalf("re-parse export: %v", err)
	}
	return doc.TraceEvents
}

// TestSummarizeReconciles checks the analyzer's sums against the known
// event set: the breakdown must reproduce the recorded span durations
// exactly — the same property the acceptance check asserts against the
// simulator's phase cycle counters.
func TestSummarizeReconciles(t *testing.T) {
	procs, err := summarize(exportEvents(t))
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	if len(procs) != 1 {
		t.Fatalf("processes = %d, want 1", len(procs))
	}
	p := procs[0]
	if p.name != "t/x" {
		t.Errorf("process name = %q, want t/x", p.name)
	}
	ps := p.paths["ptd"]
	if ps == nil {
		t.Fatal("no ptd path stats")
	}
	if ps.count != 1 || ps.total != 130 || ps.read != 100 || ps.decrypt != 30 || ps.write != 60 {
		t.Errorf("ptd = %+v, want count 1 total 130 read 100 decrypt 30 write 60", *ps)
	}
	if p.reqs.count != 1 || p.reqs.cycles != 200 || p.reqs.wait != 50 {
		t.Errorf("requests = %+v, want count 1 cycles 200 wait 50", p.reqs)
	}
	if ch := p.chans[0]; ch == nil || ch.hits != 4 || ch.misses != 0 {
		t.Errorf("ch0 = %+v, want 4 hits 0 misses", p.chans[0])
	}
	if ch := p.chans[1]; ch == nil || ch.hits != 0 || ch.misses != 2 {
		t.Errorf("ch1 = %+v, want 0 hits 2 misses", p.chans[1])
	}
	if p.occ.samples != 1 || p.occ.stashMax != 9 || p.occ.writeQMax != 3 {
		t.Errorf("occupancy = %+v, want 1 sample stashMax 9 writeQMax 3", p.occ)
	}
}

// TestPrintDeterministic renders the summary twice and checks the bytes
// match and carry the headline numbers.
func TestPrintDeterministic(t *testing.T) {
	procs, err := summarize(exportEvents(t))
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	render := func() string {
		var buf bytes.Buffer
		for _, p := range procs {
			p.print(&buf, 4)
		}
		return buf.String()
	}
	a, b := render(), render()
	if a != b {
		t.Fatal("print output differs between renders")
	}
	for _, want := range []string{"t/x", "ptd", "TOTAL", "queue wait 50 cycles", "row-hit rate"} {
		if !strings.Contains(a, want) {
			t.Errorf("output missing %q:\n%s", want, a)
		}
	}
}

// TestSummarizeRejectsUnknownPhase guards the parser against documents the
// exporter cannot have produced.
func TestSummarizeRejectsUnknownPhase(t *testing.T) {
	if _, err := summarize([]event{{Ph: "B", Pid: 1}}); err == nil {
		t.Fatal("summarize accepted a begin-phase event")
	}
}

// dramRun is a one-block DRAM run span on channel 0 of process 1.
func dramRun(name string, ts, dur uint64) event {
	return event{Name: name, Ph: "X", TS: ts, Dur: dur, Pid: 1, Tid: flight.TidDramBase,
		Args: map[string]any{"n": 1.0}}
}

// TestSummarizeRejectsOverflowingSpan: a span whose end wraps past 2^64
// would shrink the traced range below a run's start and index the row-hit
// timeline out of range; summarize must refuse it instead.
func TestSummarizeRejectsOverflowingSpan(t *testing.T) {
	procs, err := summarize([]event{dramRun("hit", 0, 10), dramRun("hit", math.MaxUint64-9, 20)})
	if err == nil {
		for _, p := range procs {
			p.print(io.Discard, 10)
		}
		t.Fatal("summarize accepted a span whose end overflows")
	}
}

// TestPrintTimelineFullCycleRange: spans may cover the whole uint64 cycle
// range without overflowing, and the bucket width must not wrap to zero
// there; the last run lands in the last bucket.
func TestPrintTimelineFullCycleRange(t *testing.T) {
	procs, err := summarize([]event{dramRun("hit", 0, 10), dramRun("miss", math.MaxUint64-10, 10)})
	if err != nil {
		t.Fatalf("summarize: %v", err)
	}
	var buf bytes.Buffer
	procs[0].print(&buf, 4)
	if want := "ch0   1.000   --    --  0.000"; !strings.Contains(buf.String(), want) {
		t.Errorf("timeline missing %q:\n%s", want, buf.String())
	}
}

// TestPrintWithoutAccessSpans: a process whose spans are all DRAM runs
// prints one "(no access spans)" line in place of the per-path table and
// still prints its row-hit timeline; one access span brings the table,
// its row and its TOTAL back.
func TestPrintWithoutAccessSpans(t *testing.T) {
	runs := []event{dramRun("hit", 0, 10), dramRun("miss", 40, 10)}
	access := event{Name: "ptd", Ph: "X", TS: 0, Dur: 50, Pid: 1, Tid: flight.TidAccess}
	for _, tc := range []struct {
		name      string
		events    []event
		want, not []string
	}{
		{"runs only", runs,
			[]string{"(no access spans)", "row-hit rate"},
			[]string{"writeback", "TOTAL"}},
		{"runs and an access", append(runs[:2:2], access),
			[]string{"writeback", "ptd", "TOTAL", "row-hit rate"},
			[]string{"(no access spans)"}},
	} {
		procs, err := summarize(tc.events)
		if err != nil {
			t.Fatalf("%s: summarize: %v", tc.name, err)
		}
		var buf bytes.Buffer
		procs[0].print(&buf, 4)
		for _, w := range tc.want {
			if !strings.Contains(buf.String(), w) {
				t.Errorf("%s: output missing %q:\n%s", tc.name, w, buf.String())
			}
		}
		for _, w := range tc.not {
			if strings.Contains(buf.String(), w) {
				t.Errorf("%s: output holds %q:\n%s", tc.name, w, buf.String())
			}
		}
	}
}

// FuzzSummarize: no byte string may panic the analyzer. Whatever decodes
// as a trace-event document is either rejected by summarize or prints.
func FuzzSummarize(f *testing.F) {
	f.Add(exportTrace(f))
	f.Add([]byte(`{"traceEvents":[{"name":"hit","ph":"X","ts":0,"dur":10,"pid":1,"tid":16,"args":{"n":1}},` +
		`{"name":"hit","ph":"X","ts":18446744073709551606,"dur":20,"pid":1,"tid":16,"args":{"n":1}}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		procs, err := parse(data)
		if err != nil {
			return
		}
		for _, buckets := range []int{1, 10} {
			for _, p := range procs {
				p.print(io.Discard, buckets)
			}
		}
	})
}
