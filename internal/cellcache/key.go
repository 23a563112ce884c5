package cellcache

import (
	"fmt"

	"iroram/internal/config"
)

// Key returns the canonical fingerprint of one simulation cell: the
// fully-resolved (post-override) system configuration, the benchmark name,
// the number of trace records consumed, and the epoch-snapshot interval.
// Two cells with equal keys produce bit-identical sim.Results (the
// determinism contract of internal/sim).
//
// The %#v verb writes every field of every nested struct by name and every
// slice element, so a field added to config.System joins the key with no
// change here; strings are quoted, so no value can fake a separator.
func Key(cfg config.System, bench string, requests int, epochInterval uint64) string {
	return fmt.Sprintf("%#v|%q|%d|%d", cfg, bench, requests, epochInterval)
}
