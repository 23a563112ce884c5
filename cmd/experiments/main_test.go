package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"iroram"
)

// runMainEnv, set to 1, makes the test binary run the command itself on
// its arguments instead of the tests, so a test can check the exit status
// and output of a real invocation.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// runCommand re-executes the test binary as the command with args and
// returns its exit status, stdout and stderr.
func runCommand(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return cmd.ProcessState.ExitCode(), stdout.String(), stderr.String()
}

// TestEpochsRequireJSONL: epoch snapshots are written only to the JSONL
// sidecars, so -epochs without -emit jsonl exits 2 before simulating
// anything, and with it the sidecar records carry the epochs.
func TestEpochsRequireJSONL(t *testing.T) {
	code, stdout, stderr := runCommand(t, "-fig", "fig2", "-quick", "-epochs", "50")
	if code != 2 || stdout != "" || !strings.Contains(stderr, "-epochs requires -emit jsonl") {
		t.Fatalf("-epochs without -emit: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}

	dir := t.TempDir()
	code, _, stderr = runCommand(t, "-fig", "fig2", "-quick", "-requests", "300",
		"-progress=false", "-emit", "jsonl", "-out", dir, "-epochs", "50")
	if code != 0 {
		t.Fatalf("-epochs with -emit jsonl: exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "fig2.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"epochs":[`)) {
		t.Errorf("fig2.jsonl carries no epochs:\n%.300s", data)
	}
}

func TestParseBenchmarksTrimsWhitespace(t *testing.T) {
	got, err := parseBenchmarks("gcc, mcf ,\tlbm")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"gcc", "mcf", "lbm"}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got %v, want %v", got, want)
		}
	}
}

func TestParseBenchmarksAcceptsSyntheticNames(t *testing.T) {
	for _, name := range []string{"mix", "random"} {
		if _, err := parseBenchmarks(name); err != nil {
			t.Errorf("%s rejected: %v", name, err)
		}
	}
}

func TestParseBenchmarksRejectsUnknown(t *testing.T) {
	_, err := parseBenchmarks("gcc,nosuch")
	if err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	for _, want := range []string{"nosuch", "valid names", "gcc", "mix"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

func TestParseBenchmarksRejectsEmpties(t *testing.T) {
	for _, s := range []string{"gcc,,mcf", " ", "gcc,"} {
		if _, err := parseBenchmarks(s); err == nil {
			t.Errorf("%q accepted despite empty entry", s)
		}
	}
}

func TestFigUsageListsEveryFigure(t *testing.T) {
	listed := make(map[string]bool)
	for _, tok := range strings.FieldsFunc(figUsage(), func(r rune) bool {
		return r == ' ' || r == ',' || r == ':'
	}) {
		listed[tok] = true
	}
	for _, name := range append(append([]string{}, iroram.FigureNames...), "zsearch", "all") {
		if !listed[name] {
			t.Errorf("-fig help %q does not list %s", figUsage(), name)
		}
	}
}
