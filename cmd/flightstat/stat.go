package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"iroram/internal/block"
	"iroram/internal/flight"
)

// event is one Chrome trace-event JSON object, restricted to the fields the
// simulator emits.
type event struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// traceDoc is the document wrapper.
type traceDoc struct {
	TraceEvents []event `json:"traceEvents"`
}

// pathStat accumulates one path type's spans across the four span threads.
type pathStat struct {
	count                       uint64
	total, read, decrypt, write uint64
}

// chanStat accumulates one DRAM channel's run service, bucketed over the
// trace's cycle range for the row-hit timeline. Blocks are weighted by run
// length, so the rates match the DRAM model's per-access accounting.
type chanStat struct {
	hits, misses uint64 // blocks served from an open/closed row
	runs         []event
}

// procStat is the full summary of one trace process (one simulated cell).
type procStat struct {
	pid   int
	name  string
	meta  map[string]any // recorded / dropped / sampled_accesses / sample_every
	paths map[string]*pathStat
	chans map[int]*chanStat
	reqs  struct{ count, cycles, wait uint64 }
	occ   struct {
		samples              uint64
		stashSum, stashMax   uint64
		writeQSum, writeQMax uint64
	}
	minTS, maxTS uint64
	spanEvents   uint64
}

// parseTrace reads one Chrome trace-event file and returns its per-process
// summaries in first-appearance (= emission) order.
func parseTrace(path string) ([]*procStat, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(data)
}

// parse decodes a trace-event document and summarizes it.
func parse(data []byte) ([]*procStat, error) {
	var doc traceDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("not a trace-event document: %w", err)
	}
	return summarize(doc.TraceEvents)
}

// summarize folds the event stream into per-process statistics.
func summarize(events []event) ([]*procStat, error) {
	byPid := map[int]*procStat{}
	var order []*procStat
	get := func(pid int) *procStat {
		p, ok := byPid[pid]
		if !ok {
			p = &procStat{pid: pid, paths: map[string]*pathStat{},
				chans: map[int]*chanStat{}, minTS: ^uint64(0)}
			byPid[pid] = p
			order = append(order, p)
		}
		return p
	}
	for _, e := range events {
		p := get(e.Pid)
		switch e.Ph {
		case "M":
			if e.Name == "process_name" {
				if n, ok := e.Args["name"].(string); ok {
					p.name = n
				}
				p.meta = e.Args
			}
		case "X":
			if err := p.span(e); err != nil {
				return nil, err
			}
		case "C":
			p.counter(e)
		default:
			return nil, fmt.Errorf("unsupported event phase %q", e.Ph)
		}
	}
	return order, nil
}

// span folds one complete ("X") event. A span whose end does not fit in
// a uint64 cannot come from the exporter and would wrap the traced range.
func (p *procStat) span(e event) error {
	if e.Dur > math.MaxUint64-e.TS {
		return fmt.Errorf("span %q at ts %d: duration %d overflows the cycle range",
			e.Name, e.TS, e.Dur)
	}
	p.spanEvents++
	if e.TS < p.minTS {
		p.minTS = e.TS
	}
	if end := e.TS + e.Dur; end > p.maxTS {
		p.maxTS = end
	}
	pathOf := func() *pathStat {
		ps, ok := p.paths[e.Name]
		if !ok {
			ps = &pathStat{}
			p.paths[e.Name] = ps
		}
		return ps
	}
	switch e.Tid {
	case flight.TidRequest:
		p.reqs.count++
		p.reqs.cycles += e.Dur
		p.reqs.wait += argU64(e.Args, "wait")
	case flight.TidAccess:
		ps := pathOf()
		ps.count++
		ps.total += e.Dur
	case flight.TidRead:
		ps := pathOf()
		ps.read += e.Dur
	case flight.TidDecrypt:
		ps := pathOf()
		ps.decrypt += e.Dur
	case flight.TidWrite:
		ps := pathOf()
		ps.write += e.Dur
	default:
		if e.Tid >= flight.TidDramBase && e.Name != "drain" {
			ch, ok := p.chans[e.Tid-flight.TidDramBase]
			if !ok {
				ch = &chanStat{}
				p.chans[e.Tid-flight.TidDramBase] = ch
			}
			n := argU64(e.Args, "n")
			if e.Name == "hit" {
				ch.hits += n
			} else {
				ch.misses += n
			}
			ch.runs = append(ch.runs, e)
		}
	}
	return nil
}

// counter folds one counter ("C") sample — the stash / write-queue
// occupancy series.
func (p *procStat) counter(e event) {
	if e.Tid != flight.TidOccupancy {
		return
	}
	stash, writeQ := argU64(e.Args, "stash"), argU64(e.Args, "writeq")
	p.occ.samples++
	p.occ.stashSum += stash
	p.occ.writeQSum += writeQ
	if stash > p.occ.stashMax {
		p.occ.stashMax = stash
	}
	if writeQ > p.occ.writeQMax {
		p.occ.writeQMax = writeQ
	}
}

func argU64(args map[string]any, key string) uint64 {
	if f, ok := args[key].(float64); ok && f >= 0 {
		return uint64(f)
	}
	return 0
}

// print renders the process summary: the per-path-type critical-path table,
// the demand-queue wait, occupancy extremes, and the per-channel row-hit
// timeline over `buckets` equal slices of the traced cycle range.
func (p *procStat) print(w io.Writer, buckets int) {
	fmt.Fprintf(w, "\n== %s (pid %d)\n", p.name, p.pid)
	if p.meta != nil {
		fmt.Fprintf(w, "   recorded %d events, dropped %d, sampled %d accesses (1 in %d)\n",
			argU64(p.meta, "recorded"), argU64(p.meta, "dropped"),
			argU64(p.meta, "sampled_accesses"), argU64(p.meta, "sample_every"))
	}
	if p.spanEvents == 0 {
		fmt.Fprintln(w, "   (no span events)")
		return
	}
	p.printPaths(w)
	if p.reqs.count > 0 {
		avg, waitPct := p.reqs.cycles/p.reqs.count, 0.0
		if p.reqs.cycles > 0 {
			waitPct = 100 * float64(p.reqs.wait) / float64(p.reqs.cycles)
		}
		fmt.Fprintf(w, "   requests: %d spans, %d cycles (avg %d), queue wait %d cycles (%.1f%%)\n",
			p.reqs.count, p.reqs.cycles, avg, p.reqs.wait, waitPct)
	}
	if p.occ.samples > 0 {
		fmt.Fprintf(w, "   occupancy: stash avg %.1f max %d; write queue avg %.1f max %d (%d samples)\n",
			float64(p.occ.stashSum)/float64(p.occ.samples), p.occ.stashMax,
			float64(p.occ.writeQSum)/float64(p.occ.samples), p.occ.writeQMax, p.occ.samples)
	}
	p.printTimeline(w, buckets)
}

// printPaths renders the per-path-type critical-path table, or one line
// when the process holds no access or phase span (only DRAM runs, say).
func (p *procStat) printPaths(w io.Writer) {
	var slugs []string
	for t := 0; t < block.NumPathTypes; t++ {
		if slug := block.PathType(t).Slug(); p.paths[slug] != nil {
			slugs = append(slugs, slug)
		}
	}
	if len(slugs) == 0 {
		fmt.Fprintln(w, "   (no access spans)")
		return
	}
	fmt.Fprintf(w, "   %-6s %8s %12s %10s %12s %12s %12s\n",
		"path", "count", "cycles", "avg", "read", "decrypt", "writeback")
	var tot pathStat
	for _, slug := range slugs {
		ps := p.paths[slug]
		avg := uint64(0)
		if ps.count > 0 {
			avg = ps.total / ps.count
		}
		fmt.Fprintf(w, "   %-6s %8d %12d %10d %12d %12d %12d\n",
			slug, ps.count, ps.total, avg, ps.read, ps.decrypt, ps.write)
		tot.count += ps.count
		tot.total += ps.total
		tot.read += ps.read
		tot.decrypt += ps.decrypt
		tot.write += ps.write
	}
	if tot.count > 0 {
		fmt.Fprintf(w, "   %-6s %8d %12d %10d %12d %12d %12d\n",
			"TOTAL", tot.count, tot.total, tot.total/tot.count, tot.read, tot.decrypt, tot.write)
	}
}

// printTimeline renders per-channel row-hit rates over equal time buckets.
// A run is attributed to the bucket holding its start timestamp; "--"
// marks buckets with no traffic on the channel.
func (p *procStat) printTimeline(w io.Writer, buckets int) {
	if len(p.chans) == 0 || p.maxTS <= p.minTS {
		return
	}
	// Ceiling division without the overflow of span+buckets-1: the range
	// may reach the top of the uint64 cycle domain.
	span := p.maxTS - p.minTS
	width := span / uint64(buckets)
	if span%uint64(buckets) != 0 {
		width++
	}
	chs := make([]int, 0, len(p.chans))
	for c := range p.chans {
		chs = append(chs, c)
	}
	sort.Ints(chs)
	fmt.Fprintf(w, "   row-hit rate (%d buckets of %d cycles):\n", buckets, width)
	for _, c := range chs {
		st := p.chans[c]
		hits := make([]uint64, buckets)
		total := make([]uint64, buckets)
		for _, e := range st.runs {
			b := (e.TS - p.minTS) / width
			if b >= uint64(buckets) {
				b = uint64(buckets) - 1
			}
			n := argU64(e.Args, "n")
			total[b] += n
			if e.Name == "hit" {
				hits[b] += n
			}
		}
		line := fmt.Sprintf("   ch%-3d", c)
		for b := 0; b < buckets; b++ {
			if total[b] == 0 {
				line += "   -- "
			} else {
				line += fmt.Sprintf(" %.3f", float64(hits[b])/float64(total[b]))
			}
		}
		rate := 0.0
		if st.hits+st.misses > 0 {
			rate = float64(st.hits) / float64(st.hits+st.misses)
		}
		fmt.Fprintf(w, "%s  (overall %.3f over %d blocks)\n", line, rate, st.hits+st.misses)
	}
}
