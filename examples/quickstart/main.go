// Quickstart: run the same workload under the Baseline Path ORAM and under
// IR-ORAM, and print the speedup with a path-access breakdown — the
// library's one-minute tour.
package main

import (
	"fmt"
	"log"

	"iroram"
	"iroram/internal/block"
)

func main() {
	const requests = 8000
	cfgBase := iroram.TinyConfig().WithScheme(iroram.Baseline())
	cfgIR := iroram.TinyConfig().WithScheme(iroram.IROram())

	base, err := iroram.RunBenchmark(cfgBase, "dee", requests)
	if err != nil {
		log.Fatal(err)
	}
	ir, err := iroram.RunBenchmark(cfgIR, "dee", requests)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("workload: dee (write-heavy hash-table style, Table II)")
	fmt.Printf("geometry: L=%d levels, %d tree-top levels on-chip\n\n",
		cfgBase.ORAM.Levels, cfgBase.ORAM.TopLevels)

	report := func(name string, r iroram.Result, blocksPerPath int) {
		fmt.Printf("%-9s %12d cycles  %6d paths  %3d blocks/path  PosMap paths %5d\n",
			name, r.Cycles, r.ORAM.Paths.Total(), blocksPerPath, r.ORAM.PosMapPaths())
	}
	report("Baseline", base, cfgBase.ORAM.Z.BlocksPerPath(cfgBase.ORAM.TopLevels))
	report("IR-ORAM", ir, cfgIR.ORAM.Z.BlocksPerPath(cfgIR.ORAM.TopLevels))

	fmt.Printf("\nspeedup: %.2fx", float64(base.Cycles)/float64(ir.Cycles))
	fmt.Printf("  (IR-Alloc shrinks paths, IR-Stash serves %d requests from the\n",
		ir.ORAM.SStashHits)
	fmt.Printf("   double-indexed tree top with no PosMap work, IR-DWB converted %d\n",
		ir.ORAM.Paths.Paths[block.PathDWB])
	fmt.Println("   dummy paths into early write-backs)")
}
