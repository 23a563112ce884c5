package iroram_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"

	"iroram"
)

// Running a workload under two schemes and comparing — the library's core
// loop. (Tiny geometry so the example runs in milliseconds.)
func Example_compareSchemes() {
	base, err := iroram.RunBenchmark(iroram.TinyConfig().WithScheme(iroram.Baseline()), "xz", 2000)
	if err != nil {
		log.Fatal(err)
	}
	ir, err := iroram.RunBenchmark(iroram.TinyConfig().WithScheme(iroram.IROram()), "xz", 2000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("IR-ORAM is faster:", ir.Cycles < base.Cycles)
	// Output: IR-ORAM is faster: true
}

// Regenerating one of the paper's figures programmatically.
func ExampleExperiment() {
	opts := iroram.QuickExperiments()
	opts.Base = iroram.PaperConfig() // Fig 7 is pure arithmetic: free at L=25
	tab, err := iroram.Experiment("fig7", opts)
	if err != nil {
		log.Fatal(err)
	}
	v, _ := tab.Get("IR-Alloc (IR-ORAM profile)", "blocks/path")
	fmt.Println("blocks per path under IR-Alloc:", v)
	// Output: blocks per path under IR-Alloc: 43
}

// Emitting a machine-readable JSONL artifact for one run — the same record
// format cmd/experiments and cmd/irsim write with -emit jsonl (schema in
// docs/METRICS.md).
func ExampleArtifactLog() {
	res, err := iroram.RunBenchmark(iroram.TinyConfig().WithScheme(iroram.IROram()), "mcf", 2000)
	if err != nil {
		log.Fatal(err)
	}
	artifacts := &iroram.ArtifactLog{}
	artifacts.Add(iroram.NewArtifactRecord("demo", "IR-ORAM", "mcf", "", 1, res))

	var buf bytes.Buffer
	if err := artifacts.Encode(&buf); err != nil {
		log.Fatal(err)
	}
	var rec iroram.ArtifactRecord
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		log.Fatal(err)
	}
	fmt.Println("schema:", rec.Schema)
	fmt.Println("cell:", rec.Figure, rec.Scheme, rec.Benchmark)
	fmt.Println("counts cycles:", rec.Metrics.Counters["sim_cycles"] == rec.Cycles)
	fmt.Println("tracks path types:", rec.Metrics.Counters["oram_paths_ptd"] > 0)
	// Output:
	// schema: 2
	// cell: demo IR-ORAM mcf
	// counts cycles: true
	// tracks path types: true
}
