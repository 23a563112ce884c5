package flight

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"iroram/internal/block"
)

// Process pairs a trace with the display name of the cell that produced
// it. In the exported file each Process becomes one Perfetto "process"
// whose "threads" are the controller phases and DRAM channels.
type Process struct {
	Name  string
	Trace *Trace
}

// Thread IDs inside each exported process: one thread per controller
// role, and one per DRAM channel c at TidDramBase + c, so controller rows
// sort above the per-channel rows. Access and phase spans are named by
// their path type's block.PathType.Slug. cmd/flightstat reads traces by
// the same IDs.
const (
	TidRequest   = 1  // demand requests through the issuer
	TidAccess    = 2  // whole path accesses
	TidRead      = 3  // read phases
	TidDecrypt   = 4  // on-chip decrypt/evict phases
	TidWrite     = 5  // posted writeback phases
	TidOccupancy = 6  // stash and write-queue occupancy samples
	TidDramBase  = 16 // DRAM channel 0
)

// jsonEvent is one Chrome trace-event object. Field order is fixed by
// the struct, and args maps marshal with sorted keys, so the exported
// bytes are deterministic for a given trace.
type jsonEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  *uint64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

func span(start, end uint64) (uint64, *uint64) {
	d := end - start
	return start, &d
}

// render converts one recorder event into its trace-event form.
func render(e Event, pid int) jsonEvent {
	switch e.Kind {
	case KindAccess:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: block.PathType(e.Sub).Slug(), Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidAccess, Args: map[string]any{"leaf": e.Arg}}
	case KindPhaseRead:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: block.PathType(e.Sub).Slug(), Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidRead}
	case KindPhaseDecrypt:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: block.PathType(e.Sub).Slug(), Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidDecrypt}
	case KindPhaseWrite:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: block.PathType(e.Sub).Slug(), Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidWrite}
	case KindRequest:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: "miss", Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidRequest,
			Args: map[string]any{"addr": e.Arg, "wait": e.Aux}}
	case KindDramRun:
		name := "miss"
		if e.Sub == 1 {
			name = "hit"
		}
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: name, Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidDramBase + int(e.Ch),
			Args: map[string]any{"bank": e.Bank, "row": e.Arg, "n": e.Aux}}
	case KindDramDrain:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: "drain", Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidDramBase + int(e.Ch),
			Args: map[string]any{"n": e.Aux}}
	case KindOccupancy:
		return jsonEvent{Name: "occupancy", Ph: "C", TS: e.Start,
			Pid: pid, Tid: TidOccupancy,
			Args: map[string]any{"stash": e.Arg, "writeq": e.Aux}}
	default:
		ts, dur := span(e.Start, e.End)
		return jsonEvent{Name: e.Kind.String(), Ph: "X", TS: ts, Dur: dur,
			Pid: pid, Tid: TidOccupancy}
	}
}

func threadName(tid int) string {
	switch tid {
	case TidRequest:
		return "requests"
	case TidAccess:
		return "access"
	case TidRead:
		return "phase:read"
	case TidDecrypt:
		return "phase:decrypt"
	case TidWrite:
		return "phase:writeback"
	case TidOccupancy:
		return "occupancy"
	default:
		return fmt.Sprintf("dram ch%d", tid-TidDramBase)
	}
}

// Write renders the processes as a single Chrome trace-event JSON
// document (the {"traceEvents": [...]} form Perfetto loads directly).
// Output is deterministic: processes appear in slice order, each one's
// metadata first (process name, then thread names for the threads that
// actually carry events, ascending), then its events in record order.
func Write(w io.Writer, procs []Process) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e jsonEvent) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
		_, err = bw.Write(b)
		return err
	}
	for i, p := range procs {
		pid := i + 1
		meta := map[string]any{"name": p.Name}
		if t := p.Trace; t != nil {
			meta["recorded"] = t.Recorded
			meta["dropped"] = t.Dropped
			meta["sampled_accesses"] = t.SampledAccesses
			meta["sample_every"] = t.SampleEvery
		}
		if err := emit(jsonEvent{Name: "process_name", Ph: "M", Pid: pid, Args: meta}); err != nil {
			return err
		}
		if p.Trace == nil {
			continue
		}
		tids := make(map[int]bool)
		for _, e := range p.Trace.Events {
			tids[render(e, pid).Tid] = true
		}
		order := make([]int, 0, len(tids))
		for tid := range tids {
			order = append(order, tid)
		}
		sort.Ints(order)
		for _, tid := range order {
			if err := emit(jsonEvent{Name: "thread_name", Ph: "M", Pid: pid, Tid: tid,
				Args: map[string]any{"name": threadName(tid)}}); err != nil {
				return err
			}
		}
		for _, e := range p.Trace.Events {
			if err := emit(render(e, pid)); err != nil {
				return err
			}
		}
	}
	if _, err := bw.WriteString("\n]}\n"); err != nil {
		return err
	}
	return bw.Flush()
}

// WriteFile writes the processes to path as trace-event JSON.
func WriteFile(path string, procs []Process) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
