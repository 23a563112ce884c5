package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// runMainEnv, set to 1, makes the test binary run the command itself on
// its arguments instead of the tests, so a test can check the exit status
// and output of a real invocation.
const runMainEnv = "IRSIM_TEST_RUN_MAIN"

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
// record, so -epochs without -emit jsonl exits 2 before simulating
// anything, alone or under -compare, and with it the record carries the
// epochs.
func TestEpochsRequireJSONL(t *testing.T) {
	for _, args := range [][]string{
		{"-epochs", "50"},
		{"-compare", "-epochs", "50"},
	} {
		code, stdout, stderr := runCommand(t, args...)
		if code != 2 || stdout != "" || !strings.Contains(stderr, "-epochs requires -emit jsonl") {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q", args, code, stdout, stderr)
		}
	}

	dir := t.TempDir()
	code, _, stderr := runCommand(t, "-levels", "12", "-bench", "random", "-requests", "300",
		"-emit", "jsonl", "-out", dir, "-epochs", "50")
	if code != 0 {
		t.Fatalf("-epochs with -emit jsonl: exit %d, stderr %q", code, stderr)
	}
	data, err := os.ReadFile(filepath.Join(dir, "irsim.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"epochs":[`)) {
		t.Errorf("irsim.jsonl carries no epochs:\n%.300s", data)
	}
}
