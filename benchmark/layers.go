package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"iroram"
)

// spans are the harness's host-time spans around the calls a traced
// single-System repetition makes into the trace and sim layers. They
// accumulate over every traced repetition of a run.
type spans struct {
	next  time.Duration // in TraceGenerator.Next
	steps []float64     // ns of each System.Step call
	// pathStep is the Step time of the calls that issued at least one path,
	// and paths the paths those calls issued.
	pathStep time.Duration
	paths    uint64
	result   time.Duration // in System.Result
	results  int
}

// replay is the Step loop of runSystem with every call timed.
func (sp *spans) replay(sys *iroram.System, gen iroram.TraceGenerator, n int) {
	st := sys.Controller().Stats()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		req, ok := gen.Next()
		t1 := time.Now()
		if !ok {
			break
		}
		issued := st.PathsIssued
		sys.Step(req)
		t2 := time.Now()
		d := t2.Sub(t1)
		sp.next += t1.Sub(t0)
		sp.steps = append(sp.steps, float64(d.Nanoseconds()))
		if p := st.PathsIssued - issued; p > 0 {
			sp.pathStep += d
			sp.paths += p
		}
		t0 = t2
	}
}

// namedLayers are the repository packages host time is attributed to.
var namedLayers = []string{
	"trace", "cache", "sim", "core", "posmap", "tree", "stash", "dram",
	"metrics", "rng", "experiments", "runner", "cellcache",
}

// layers is the report order: the named layers, then "other" for samples
// with iroram frames in no named layer and "runtime" for samples with no
// iroram frame.
var layers = append(slices.Clip(namedLayers), "other", "runtime")

// profile is a CPU profile's sample time by layer.
type profile struct {
	byLayer map[string]time.Duration
	total   time.Duration
	// wall is the host time the profiler ran for.
	wall time.Duration
}

// share returns the fraction of samples charged to layer.
func (p profile) share(layer string) float64 {
	return ratio(float64(p.byLayer[layer]), float64(p.total))
}

// coverage is the fraction of samples charged to a named repository layer.
func (p profile) coverage() float64 {
	if p.total == 0 {
		return 0
	}
	return 1 - p.share("other") - p.share("runtime")
}

// profiled runs fn under the CPU profiler and attributes the samples to
// layers through `go tool pprof -traces`.
func profiled(fn func() error) (profile, error) {
	dir, err := os.MkdirTemp("", "benchmark-profile")
	if err != nil {
		return profile{}, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		return profile{}, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return profile{}, err
	}
	start := time.Now()
	runErr := fn()
	pprof.StopCPUProfile()
	wall := time.Since(start)
	if err := f.Close(); err != nil {
		return profile{}, err
	}
	if runErr != nil {
		return profile{}, runErr
	}
	exe, err := os.Executable()
	if err != nil {
		return profile{}, err
	}
	cmd := exec.Command("go", "tool", "pprof", "-traces", exe, path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return profile{}, fmt.Errorf("go tool pprof: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	p, err := attribute(bytes.NewReader(out))
	p.wall = wall
	return p, err
}

const traceSeparator = "-----------+"

// attribute parses `go tool pprof -traces` output and charges each sample
// to the innermost frame of a named layer, so crypto/md5 under the
// IR-Stash index counts as stash, a map clear counts under its caller, and
// small helpers of other iroram packages (block, stats, config), mostly
// inlined, count under the layer that called them.
func attribute(r io.Reader) (profile, error) {
	p := profile{byLayer: map[string]time.Duration{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var (
		inSample bool // between separators, after a sample's value line
		started  bool // past the header
		value    time.Duration
		layer    string
		inModule bool // the sample has a frame in the iroram module
	)
	flush := func() {
		if !inSample {
			return
		}
		switch {
		case layer != "":
		case inModule:
			layer = "other"
		default:
			layer = "runtime"
		}
		p.byLayer[layer] += value
		p.total += value
		inSample, layer, inModule = false, "", false
	}
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, traceSeparator) {
			flush()
			started = true
			continue
		}
		fields := strings.Fields(line)
		if !started || len(fields) == 0 {
			continue
		}
		frame := fields[0]
		if !inSample {
			if len(fields) < 2 {
				return profile{}, fmt.Errorf("pprof traces: sample line %q has no frame", line)
			}
			v, err := time.ParseDuration(fields[0])
			if err != nil {
				return profile{}, fmt.Errorf("pprof traces: sample value: %w", err)
			}
			value, frame, inSample = v, fields[1], true
		}
		if layer == "" {
			var in bool
			layer, in = layerOf(frame)
			inModule = inModule || in
		}
	}
	if err := sc.Err(); err != nil {
		return profile{}, err
	}
	flush()
	if p.total == 0 {
		return profile{}, errors.New("pprof traces: no samples")
	}
	return p, nil
}

// layerOf names the layer a frame belongs to ("" if none) and reports
// whether the frame is in the iroram module at all.
func layerOf(frame string) (string, bool) {
	rest, ok := strings.CutPrefix(frame, "iroram/internal/")
	if !ok {
		return "", strings.HasPrefix(frame, "iroram.")
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	if slices.Contains(namedLayers, rest) {
		return rest, true
	}
	return "", true
}
