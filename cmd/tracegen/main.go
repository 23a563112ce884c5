// Command tracegen writes synthetic workload traces to disk in the binary
// trace format, for replay via examples/tracereplay or external tools.
//
// Usage:
//
//	tracegen -bench mcf -n 100000 -o mcf.trace
//	tracegen -bench random -n 50000 -o rnd.trace
package main

import (
	"flag"
	"fmt"
	"os"

	"iroram"
	"iroram/internal/trace"
)

func main() {
	var (
		bench    = flag.String("bench", "mix", `workload: Table II benchmark, "mix", or "random"`)
		n        = flag.Int("n", 100000, "number of records")
		outPath  = flag.String("o", "", "output file (required)")
		seed     = flag.Uint64("seed", 1, "generator seed")
		universe = flag.Uint64("universe", 0, "protected space in blocks (0 = scaled default)")
		text     = flag.Bool("text", false, "write the human-readable text format instead of binary")
	)
	flag.Parse()
	if *outPath == "" {
		fmt.Fprintln(os.Stderr, "tracegen: -o is required")
		os.Exit(2)
	}
	u := *universe
	if u == 0 {
		u = iroram.ScaledConfig().ORAM.DataBlocks()
	}
	gen, err := trace.Named(*bench, u, *seed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(2)
	}
	reqs := trace.Collect(gen, *n)
	f, err := os.Create(*outPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	write := trace.Write
	if *text {
		write = trace.WriteText
	}
	if err := write(f, *bench, reqs); err != nil {
		fmt.Fprintf(os.Stderr, "tracegen: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d records of %q to %s\n", len(reqs), *bench, *outPath)
}
