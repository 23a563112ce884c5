package iroram

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the quick -fig all golden files under testdata/")

const (
	goldenTables   = "testdata/fig-all-quick.txt"
	goldenDigests  = "testdata/fig-all-quick.sha256"
	goldenRequests = 2000
)

// TestQuickSweepGolden is the top-level output oracle. It reruns every
// figure at quick scale with 2000 requests per cell — the run behind
//
//	experiments -fig all -quick -requests 2000 -emit jsonl -out DIR
//
// — and compares the printed tables byte for byte with
// testdata/fig-all-quick.txt, and each JSONL sidecar's SHA-256 with
// testdata/fig-all-quick.sha256. The digest file is in sha256sum format,
// so `sha256sum -c` checks a CLI artifact directory against it as well.
// The sidecars themselves (~580 KB) are not checked in.
//
// Regenerate with `go test -run QuickSweepGolden -update .` only for an
// intentional output change, and justify it in CHANGES.md.
func TestQuickSweepGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full quick sweep is an order of magnitude slower under -race; plain go test runs it")
	}
	opts := QuickExperiments()
	opts.Requests = goldenRequests
	opts.Jobs = 2
	log := &ArtifactLog{}
	opts.Artifacts = log

	var tables strings.Builder
	sw := Sweep{Options: opts, Dedup: true, Overlap: true}
	if err := sw.Run(func(fr FigureRun) {
		if fr.Err != nil {
			t.Fatalf("%s: %v", fr.Name, fr.Err)
		}
		tables.WriteString(fr.Table.String())
		tables.WriteString("\n")
	}); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := log.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	digests := sidecarDigests(t, dir)

	if *updateGolden {
		var b strings.Builder
		for _, name := range sortedKeys(digests) {
			fmt.Fprintf(&b, "%s  %s\n", digests[name], name)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenTables, []byte(tables.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenDigests, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	want, err := os.ReadFile(goldenTables)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	if got := tables.String(); got != string(want) {
		t.Errorf("tables drifted from %s: %s", goldenTables, firstLineDiff(got, string(want)))
	}

	wantDigests := readDigests(t, goldenDigests)
	for _, name := range sortedKeys(wantDigests) {
		switch got, ok := digests[name]; {
		case !ok:
			t.Errorf("sidecar %s: missing from the sweep's artifacts", name)
		case got != wantDigests[name]:
			t.Errorf("sidecar %s: sha256 %s, golden %s", name, got, wantDigests[name])
		}
	}
	for _, name := range sortedKeys(digests) {
		if _, ok := wantDigests[name]; !ok {
			t.Errorf("sidecar %s: not in %s", name, goldenDigests)
		}
	}
}

// sidecarDigests returns the hex SHA-256 of every file in dir, by name.
func sidecarDigests(t *testing.T, dir string) map[string]string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		out[e.Name()] = hex.EncodeToString(sum[:])
	}
	return out
}

// readDigests parses a sha256sum-format file ("<hex>  <name>" per line).
func readDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (run with -update to record it)", err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		sum, name, ok := strings.Cut(sc.Text(), "  ")
		if !ok || len(sum) != 2*sha256.Size || name == "" {
			t.Fatalf("%s:%d: malformed digest line %q", path, n, sc.Text())
		}
		out[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// firstLineDiff describes the first line at which got and want differ.
func firstLineDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n got: %q\nwant: %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d lines, golden has %d", len(g), len(w))
}
