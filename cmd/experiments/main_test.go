package main

import (
	"strings"
	"testing"

	"iroram"
)

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
