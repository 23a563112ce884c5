package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const validReport = `{"reps": 1, "benchmarks": {"PathAccess": {"ns_per_op": 4000}}, "metrics": {"fig10_gmean_IR-ORAM": 1.2}}`

func writeReport(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadReportAcceptsValid(t *testing.T) {
	rep, err := loadReport(writeReport(t, validReport+"\n"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Benchmarks["PathAccess"].NsPerOp != 4000 {
		t.Errorf("PathAccess = %+v", rep.Benchmarks["PathAccess"])
	}
}

// Every snapshot in the repository must stay loadable by the stricter
// decoder, or `make benchcmp` would refuse its own history.
func TestLoadReportAcceptsCheckedInSnapshots(t *testing.T) {
	paths, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no BENCH snapshots found (%v)", err)
	}
	for _, p := range paths {
		if _, err := loadReport(p); err != nil {
			t.Errorf("%s: %v", p, err)
		}
	}
}

func TestLoadReportRejects(t *testing.T) {
	cases := []struct {
		name, body, want string
	}{
		{"unknown field", `{"benchmarks": {"A": {"ns_per_op": 1}}, "bench": {}}`, "unknown field"},
		{"unknown entry field", `{"benchmarks": {"A": {"ns_per_op": 1, "ns": 2}}}`, "unknown field"},
		{"trailing data", validReport + ` {}`, "trailing data"},
		{"trailing garbage", validReport + `]`, "trailing data"},
		{"empty benchmarks", `{"benchmarks": {}, "metrics": {"m": 1}}`, "no benchmarks"},
		{"missing benchmarks", `{"metrics": {"m": 1}}`, "no benchmarks"},
		{"not an object", `[]`, "cannot unmarshal"},
		{"empty file", ``, "EOF"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := loadReport(writeReport(t, tc.body))
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("err = %v, want one mentioning %q", err, tc.want)
			}
		})
	}
}

// A baseline with no benchmarks used to compare as "ok" — nothing to
// regress against. The gate must fail instead.
func TestDiffRejectsEmptyBaseline(t *testing.T) {
	cur := writeReport(t, validReport)
	empty := writeReport(t, `{"benchmarks": {}}`)
	if code := runDiff(cur, empty); code != 1 {
		t.Errorf("runDiff against empty baseline = %d, want 1", code)
	}
	if code := runDiff(cur, cur); code != 0 {
		t.Errorf("runDiff against itself = %d, want 0", code)
	}
}

// A benchmark on one side only must never fail the gate: one retired from
// fresh snapshots (ServiceBatch, whose per-address DRAM path no production
// code runs) is still in the checked-in baseline, and PRs add benchmarks.
func TestDiffSkipsOneSidedBenchmarks(t *testing.T) {
	withRetired := writeReport(t, `{"benchmarks": {"PathAccess": {"ns_per_op": 4000}, `+
		`"ServiceBatch": {"ns_per_op": 500}}, "metrics": {"fig10_gmean_IR-ORAM": 1.2}}`)
	cur := writeReport(t, validReport)
	if code := runDiff(cur, withRetired); code != 0 {
		t.Errorf("runDiff with a benchmark only in the baseline = %d, want 0", code)
	}
	if code := runDiff(withRetired, cur); code != 0 {
		t.Errorf("runDiff with a benchmark only in the new snapshot = %d, want 0", code)
	}
}

func TestRunRejectsBadReps(t *testing.T) {
	for _, reps := range []string{"0", "-3"} {
		if code := run([]string{"-reps", reps}); code != 2 {
			t.Errorf("-reps %s: exit %d, want 2", reps, code)
		}
	}
}
