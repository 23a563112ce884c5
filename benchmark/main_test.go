package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"iroram"
)

func TestAttributeFixture(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := attribute(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"stash":   1200 * time.Millisecond, // md5 under the IR-Stash index
		"runtime": 30 * time.Millisecond,   // GC worker, no iroram frame
		"core":    10 * time.Millisecond,   // map clear under its caller
		"tree":    20 * time.Millisecond,   // inlined block helper under its caller
		"other":   10 * time.Millisecond,   // iroram frames, none in a named layer
		"dram":    40 * time.Millisecond,
	}
	for _, l := range layers {
		if p.byLayer[l] != want[l] {
			t.Errorf("layer %s = %v, want %v", l, p.byLayer[l], want[l])
		}
	}
	if p.total != 1310*time.Millisecond {
		t.Errorf("total = %v, want 1.31s", p.total)
	}
	if got, want := p.coverage(), 1270.0/1310; math.Abs(got-want) > 1e-12 {
		t.Errorf("coverage = %v, want %v", got, want)
	}
}

func TestAttributeRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"empty":     "",
		"no frame":  "header\n-----------+---\n      10ms\n-----------+---\n",
		"bad value": "header\n-----------+---\n   tenms   main.main\n-----------+---\n",
	} {
		if _, err := attribute(strings.NewReader(in)); err == nil {
			t.Errorf("%s: attribute accepted %q", name, in)
		}
	}
}

func TestCheckResultTrips(t *testing.T) {
	const asked = 500
	res, err := iroram.RunBenchmark(iroram.TinyConfig(), "gcc", asked)
	if err != nil {
		t.Fatal(err)
	}
	if p := checkResult(res, asked); len(p) != 0 {
		t.Fatalf("clean run flagged: %v", p)
	}
	if p := checkResult(res, asked+1); len(p) == 0 {
		t.Error("fewer requests consumed than asked not flagged")
	}
	bad := res
	bad.ORAM.NonUniformIssues = 1
	if p := checkResult(bad, asked); len(p) == 0 {
		t.Error("non-uniform issue not flagged")
	}
	bad = res
	bad.Requests--
	if p := checkResult(bad, asked); len(p) == 0 {
		t.Error("Result disagreeing with its metrics snapshot not flagged")
	}
}

func TestCompareRepsTrips(t *testing.T) {
	reps := []rep{{digest: "a"}, {digest: "a"}, {digest: "b"}}
	compareReps(reps)
	for i, wantBad := range []bool{false, false, true} {
		if got := len(reps[i].problems) > 0; got != wantBad {
			t.Errorf("rep %d flagged = %v, want %v (%v)", i, got, wantBad, reps[i].problems)
		}
	}
}

// TestMetricsMatchBenchmarkJSON checks that the benchmark prints exactly the
// metrics BENCHMARK.json declares, with the declared units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("BENCHMARK.json workloads %s, benchmark has %s", got, want)
	}

	r := rep{wall: time.Second, windows: []window{{d: time.Second, requests: 1, paths: 1}}, cpu: time.Second, sim: counters{}}
	reps := []rep{r, r}
	printed := map[string][]series{
		"end_to_end": endToEnd(reps, []float64{1}),
		"per_layer":  perLayer(workloads[0], reps, reps, &spans{}, profile{}),
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for list, declared := range map[string][]struct{ Name, Unit string }{
		"end_to_end": decl.EndToEnd, "per_layer": decl.PerLayer,
	} {
		want := map[string]string{}
		for _, m := range declared {
			if !valid.MatchString(m.Name) {
				t.Errorf("%s: invalid metric name %q", list, m.Name)
			}
			want[m.Name] = m.Unit
		}
		got := map[string]string{}
		for _, s := range printed[list] {
			got[s.name] = s.unit
			if unit, ok := want[s.name]; !ok {
				t.Errorf("%s: printed metric %s is not declared", list, s.name)
			} else if unit != s.unit {
				t.Errorf("%s: %s printed in %s, declared in %s", list, s.name, s.unit, unit)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: declared metric %s is not printed", list, name)
			}
		}
	}
}

// toy shrinks a workload to a smoke-test size.
func toy(w workload) workload {
	if w.sweep() {
		w.requests = 200
		return w
	}
	w.base = iroram.TinyConfig
	w.requests = 2000
	return w
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		w := toy(w)
		ss, reps, err := measure(w, 1, time.Millisecond, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if len(reps) != 2 {
			t.Errorf("%s: %d reps, want the minimum of 2", w.name, len(reps))
		}
		for i, r := range reps {
			if len(r.problems) > 0 {
				t.Errorf("%s rep %d: %v", w.name, i, r.problems)
			}
		}
		for _, s := range ss {
			if v := median(s.values); !(v > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, s.name, v)
			}
		}
	}
}

func TestTracedSmoke(t *testing.T) {
	w := toy(workloads[len(workloads)-1])
	ss, reps, err := measure(w, 1, time.Millisecond, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range reps {
		if len(r.problems) > 0 {
			t.Errorf("rep %d: %v", i, r.problems)
		}
	}
	got := map[string]float64{}
	for _, s := range ss {
		got[s.name] = median(s.values)
	}
	if got["experiments.cells"] == 0 || got["profile_coverage"] <= 0 {
		t.Errorf("traced sweep: cells %v, coverage %v", got["experiments.cells"], got["profile_coverage"])
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "xz-ring", "--seconds", "0"},
		{"--workload", "xz-ring", "--trace", "2"},
		{"--workload", "xz-ring", "extra"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want 2 and no result", args, code, stdout.String())
		}
	}
}
