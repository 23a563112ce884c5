package iroram

import (
	"math"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// resultsScaled is the recorded default-scale `-fig all` output that
// EXPERIMENTS.md's paper-vs-measured claims rest on; `make scaled` (and the
// CI scaled job) regenerates it and byte-diffs it against this file.
const resultsScaled = "results_scaled.txt"

// TestPaperClaims checks each paper shape claim that EXPERIMENTS.md marks
// as reproduced against the checked-in results_scaled.txt, one subtest per
// claim. The scaled job only says that bytes changed; after a re-record
// this test says which claims survive, and a failing subtest names the
// claim (and the EXPERIMENTS.md text) that has to change with the data.
func TestPaperClaims(t *testing.T) {
	tabs := parseResults(t, resultsScaled)
	get := func(title string) *resultTable {
		tab, ok := tabs[title]
		if !ok {
			t.Fatalf("%s has no table %q", resultsScaled, title)
		}
		return tab
	}
	fig3 := get("Fig 3: space utilization per tree level (Baseline, mix + random tail)")
	fig5 := get("Fig 5: write-phase placement level by block origin")
	fig6 := get("Fig 6: level at which requested blocks are found")
	fig10 := get("Fig 10: speedup over Baseline")
	fig11 := get("Fig 11: IR-Stash+IR-Alloc over an LLC-D baseline")
	fig12 := get("Fig 12: IR-Alloc configurations (normalized time; bg-eviction share)")
	fig13 := get("Fig 13: space utilization per tree level under IR-Alloc")
	fig14 := get("Fig 14: PosMap accesses of IR-Stash normalized to Baseline")
	fig15 := get("Fig 15: access type distribution under IR-DWB")
	fig16 := get("Fig 16: IR-Alloc scalability on random traces")
	prot := get("Ablation: IR-Alloc speedup with and without timing protection")

	t.Run("Fig5/pre-existing_halves_L00_to_L02", func(t *testing.T) {
		for _, r := range [][2]string{{"L00", "L01"}, {"L01", "L02"}} {
			hi, lo := fig5.cell(t, r[0], "pre-existing"), fig5.cell(t, r[1], "pre-existing")
			if q := lo / hi; q < 0.45 || q > 0.55 {
				t.Errorf("pre-existing %s %.3f is %.2f of %s %.3f, not half", r[1], lo, q, r[0], hi)
			}
		}
	})
	t.Run("Fig5/fetched_share_at_L18-L20_is_0.325", func(t *testing.T) {
		sum := 0.0
		for _, r := range []string{"L18", "L19", "L20"} {
			sum += fig5.cell(t, r, "fetched")
		}
		if math.Abs(sum-0.325) > 0.0005 {
			t.Errorf("fetched share at L18-L20 is %.3f", sum)
		}
	})

	t.Run("Fig6/L09_cumulative_below_0.1", func(t *testing.T) {
		if v := fig6.cell(t, "L09", "cumulative"); v >= 0.1 {
			t.Errorf("cumulative share through L09 %.3f", v)
		}
	})

	t.Run("Fig10/gmean_order", func(t *testing.T) {
		// IR-ORAM > IR-Alloc > Rho > IR-Stash > IR-DWB > Baseline (1).
		order := []string{"IR-ORAM", "IR-Alloc", "Rho", "IR-Stash", "IR-DWB", "Baseline"}
		for i := 1; i < len(order); i++ {
			hi, lo := fig10.cell(t, "gmean", order[i-1]), fig10.cell(t, "gmean", order[i])
			if hi <= lo {
				t.Errorf("gmean %s %.3f is not above %s %.3f", order[i-1], hi, order[i], lo)
			}
		}
	})
	t.Run("Fig10/IR-Alloc_above_1_on_every_row", func(t *testing.T) {
		for _, r := range fig10.rows {
			if v := fig10.cell(t, r, "IR-Alloc"); v <= 1 {
				t.Errorf("%s: IR-Alloc %.3f", r, v)
			}
		}
	})
	t.Run("Fig10/Rho_below_1_exactly_on_mcf_lbm_str", func(t *testing.T) {
		var below []string
		for _, r := range fig10.body() {
			if fig10.cell(t, r, "Rho") < 1 {
				below = append(below, r)
			}
		}
		if got := strings.Join(below, ","); got != "mcf,lbm,str" {
			t.Errorf("Rho is below 1 on %q, want mcf,lbm,str", got)
		}
	})
	t.Run("Fig10/IR-Stash_within_0.5%_of_1_on_mcf_lbm", func(t *testing.T) {
		for _, r := range []string{"mcf", "lbm"} {
			if v := fig10.cell(t, r, "IR-Stash"); math.Abs(v-1) > 0.005 {
				t.Errorf("%s: IR-Stash %.3f", r, v)
			}
		}
	})
	t.Run("Fig10/IR-DWB_largest_on_gcc", func(t *testing.T) {
		gcc := fig10.cell(t, "gcc", "IR-DWB")
		for _, r := range fig10.body() {
			if v := fig10.cell(t, r, "IR-DWB"); r != "gcc" && v >= gcc {
				t.Errorf("IR-DWB on %s %.3f is not below gcc's %.3f", r, v, gcc)
			}
		}
	})
	t.Run("Fig10/IR-ORAM_above_Rho_on_9_of_14_rows", func(t *testing.T) {
		wins := 0
		for _, r := range fig10.body() {
			if fig10.cell(t, r, "IR-ORAM") > fig10.cell(t, r, "Rho") {
				wins++
			}
		}
		if n := len(fig10.body()); wins != 9 || n != 14 {
			t.Errorf("IR-ORAM beats Rho on %d of %d rows, want 9 of 14", wins, n)
		}
	})

	t.Run("Fig11/LLC-D_above_1_on_lbm_rom_bwa_below_1_on_mcf", func(t *testing.T) {
		const col = "LLC-D vs Baseline"
		for _, r := range []string{"lbm", "rom", "bwa"} {
			if v := fig11.cell(t, r, col); v <= 1 {
				t.Errorf("%s: LLC-D %.3f, want above 1", r, v)
			}
		}
		if v := fig11.cell(t, "mcf", col); v >= 1 {
			t.Errorf("mcf: LLC-D %.3f, want below 1", v)
		}
	})
	t.Run("Fig11/IR-Stash+IR-Alloc_over_LLC-D_above_1_on_all_13", func(t *testing.T) {
		const col = "IR-Stash+IR-Alloc vs LLC-D"
		if n := len(fig11.body()); n != 13 {
			t.Fatalf("%d benchmark rows, want 13", n)
		}
		for _, r := range fig11.body() {
			if v := fig11.cell(t, r, col); v <= 1 {
				t.Errorf("%s: %.3f", r, v)
			}
		}
	})

	allocs := []string{"IR-Alloc1", "IR-Alloc2", "IR-Alloc3", "IR-Alloc4"}
	t.Run("Fig12/mean_falls_strictly_Alloc1_to_Alloc4", func(t *testing.T) {
		for i := 1; i < len(allocs); i++ {
			prev, cur := fig12.cell(t, "mean", allocs[i-1]), fig12.cell(t, "mean", allocs[i])
			if cur >= prev {
				t.Errorf("mean %s %.3f is not below %s %.3f", allocs[i], cur, allocs[i-1], prev)
			}
		}
	})
	t.Run("Fig12/no_row_rises", func(t *testing.T) {
		for _, r := range fig12.rows {
			for i := 1; i < len(allocs); i++ {
				prev, cur := fig12.cell(t, r, allocs[i-1]), fig12.cell(t, r, allocs[i])
				if cur > prev {
					t.Errorf("%s: %s %.3f rises above %s %.3f", r, allocs[i], cur, allocs[i-1], prev)
				}
			}
		}
	})
	t.Run("Fig12/every_bg_share_is_0", func(t *testing.T) {
		for _, r := range fig12.rows {
			for _, a := range allocs {
				if v := fig12.cell(t, r, a+" bg"); v != 0 {
					t.Errorf("%s: %s bg-eviction share %.3f", r, a, v)
				}
			}
		}
	})

	t.Run("Fig13/L10-L12_above_Fig3_at_25-100%", func(t *testing.T) {
		for _, r := range []string{"L10", "L11", "L12"} {
			for _, c := range []string{"25%", "50%", "75%", "100%"} {
				if alloc, base := fig13.cell(t, r, c), fig3.cell(t, r, c); alloc <= base {
					t.Errorf("%s at %s: %.3f under IR-Alloc, %.3f in Fig 3", r, c, alloc, base)
				}
			}
		}
	})

	t.Run("Fig14/mean_below_1", func(t *testing.T) {
		if v := fig14.cell(t, "mean", "normalized PosMap accesses"); v >= 1 {
			t.Errorf("mean normalized PosMap accesses %.3f", v)
		}
	})

	t.Run("Fig15/average_dummy_share_falls", func(t *testing.T) {
		base, dwb := fig15.cell(t, "avg", "dummy (Baseline)"), fig15.cell(t, "avg", "dummy (IR-DWB)")
		if dwb >= base {
			t.Errorf("average dummy share %.3f under IR-DWB, %.3f under Baseline", dwb, base)
		}
	})
	t.Run("Fig15/no_row_rises", func(t *testing.T) {
		for _, r := range fig15.rows {
			base, dwb := fig15.cell(t, r, "dummy (Baseline)"), fig15.cell(t, r, "dummy (IR-DWB)")
			if dwb > base {
				t.Errorf("%s: dummy share rises from %.3f to %.3f under IR-DWB", r, base, dwb)
			}
		}
	})

	t.Run("Fig16/every_speedup_above_1_stddev_at_most_0.003", func(t *testing.T) {
		for _, r := range fig16.rows {
			if v, sd := fig16.cell(t, r, "speedup"), fig16.cell(t, r, "stddev"); v <= 1 || sd > 0.003 {
				t.Errorf("%s: speedup %.3f, stddev %.3f", r, v, sd)
			}
		}
	})

	t.Run("VI-A/gmeans_equal", func(t *testing.T) {
		with, without := prot.cell(t, "gmean", "with protection"), prot.cell(t, "gmean", "without protection")
		if with != without {
			t.Errorf("gmean %.3f with protection, %.3f without", with, without)
		}
	})
	t.Run("VI-A/every_row_within_0.35%", func(t *testing.T) {
		for _, r := range prot.rows {
			with, without := prot.cell(t, r, "with protection"), prot.cell(t, r, "without protection")
			if d := math.Abs(without-with) / with; d > 0.0035 {
				t.Errorf("%s: %.3f with protection, %.3f without (%.2f%%)", r, with, without, 100*d)
			}
		}
	})
}

// resultTable is one table of a results file as stats.Table prints it: a
// title line, a header line of column names, then one line per row label.
type resultTable struct {
	cols []string    // value columns, in order
	rows []string    // row labels, in order
	vals [][]float64 // vals[row][col]
}

// headerSep splits a header line: column names hold single spaces at most,
// and the printer puts at least two between columns.
var headerSep = regexp.MustCompile(`\s{2,}`)

// parseResults reads every blank-line-separated table of a results file,
// keyed by title. A row's label is what precedes its value cells, so labels
// may hold spaces.
func parseResults(t *testing.T, path string) map[string]*resultTable {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	tabs := map[string]*resultTable{}
	for _, block := range strings.Split(strings.TrimSpace(string(data)), "\n\n") {
		lines := strings.Split(block, "\n")
		if len(lines) < 3 {
			t.Fatalf("%s: table %q has no rows", path, lines[0])
		}
		header := headerSep.Split(lines[1], -1)
		if header[0] != "benchmark" {
			t.Fatalf("%s: table %q: header %q", path, lines[0], lines[1])
		}
		tab := &resultTable{cols: header[1:]}
		for _, line := range lines[2:] {
			f := strings.Fields(line)
			label := len(f) - len(tab.cols)
			if label < 1 {
				t.Fatalf("%s: table %q: row %q has fewer than %d cells", path, lines[0], line, len(tab.cols))
			}
			row := make([]float64, len(tab.cols))
			for i, cell := range f[label:] {
				if row[i], err = strconv.ParseFloat(cell, 64); err != nil {
					t.Fatalf("%s: table %q: row %q: %v", path, lines[0], line, err)
				}
			}
			tab.rows = append(tab.rows, strings.Join(f[:label], " "))
			tab.vals = append(tab.vals, row)
		}
		tabs[lines[0]] = tab
	}
	return tabs
}

// cell returns the value at row label r and column c.
func (tab *resultTable) cell(t *testing.T, r, c string) float64 {
	t.Helper()
	ri, ci := slices.Index(tab.rows, r), slices.Index(tab.cols, c)
	if ri < 0 || ci < 0 {
		t.Fatalf("no cell (%q, %q) in a table with rows %q and columns %q", r, c, tab.rows, tab.cols)
	}
	return tab.vals[ri][ci]
}

// body returns the row labels other than the summary row (gmean, mean or
// avg): the benchmarks, and the mix where a figure has one.
func (tab *resultTable) body() []string {
	var out []string
	for _, r := range tab.rows {
		if r != "gmean" && r != "mean" && r != "avg" {
			out = append(out, r)
		}
	}
	return out
}
