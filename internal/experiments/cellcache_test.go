package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"iroram/internal/cellcache"
	"iroram/internal/config"
)

// TestCachedResultImmutable pins the contract the cross-figure cache relies
// on (see the cellcache package doc): a sim.Result handed to consumers —
// table math, artifact records, repeat requesters — is never mutated, so
// serving the one stored value to every requester is safe. If this test
// ever fails, cache hits must start deep-copying.
func TestCachedResultImmutable(t *testing.T) {
	opts := Quick()
	opts.Requests = 400
	opts.Benchmarks = []string{"gcc", "mcf"}
	opts.Cache = cellcache.New()
	opts.Counters = &CellCounters{}
	opts.EpochInterval = 100 // populate the Epochs slice so it is covered too

	res1, err := opts.runCell(cell{cfg: opts.configFor(config.Baseline()), bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	before, err := json.Marshal(res1)
	if err != nil {
		t.Fatal(err)
	}

	// Exercise the real consumers against the stored value: a full driver
	// re-requests the Baseline/gcc cell (a hit returning the same Result),
	// does its table arithmetic, and builds artifact records from it.
	driver := opts
	driver.Artifacts = &ArtifactLog{}
	driver.Figure = "table2"
	if _, err := Table2(driver); err != nil {
		t.Fatal(err)
	}
	if opts.Counters.Hits.Load() == 0 {
		t.Fatal("driver did not hit the cached cell; the test exercises nothing")
	}

	res2, err := opts.runCell(cell{cfg: opts.configFor(config.Baseline()), bench: "gcc"})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics != res1.Metrics {
		t.Error("cache hit returned a different Snapshot pointer than the stored result")
	}
	after, err := json.Marshal(res2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("stored sim.Result changed while consumers used it — hits must deep-copy")
	}
}
