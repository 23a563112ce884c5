package cellcache

import (
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"sync"

	"iroram/internal/config"
)

// Key returns the canonical fingerprint of one simulation cell: the
// fully-resolved (post-override) system configuration, the benchmark name,
// the number of trace records consumed, and the epoch-snapshot interval.
// Two cells with equal keys produce bit-identical sim.Results (the
// determinism contract of internal/sim), and the encoding is collision-free
// by construction — every field is written out in full, so distinct cells
// can never share a key.
//
// The encoder is hand-written field by field; the coverage guard
// (verifyCoverage) panics before the first key is built if any config
// struct has grown a field the encoder does not write. Fail-closed: a
// configuration change can break the build-time contract, never serve a
// stale hit.
func Key(cfg config.System, bench string, requests int, epochInterval uint64) string {
	guardOnce.Do(mustCoverConfig)
	b := make([]byte, 0, 512)
	b = appendSystem(b, cfg)
	b = append(b, "bench="...)
	b = append(b, bench...)
	b = appendUint(b, "requests", uint64(requests))
	b = appendUint(b, "epoch", epochInterval)
	return string(b)
}

func appendUint(b []byte, name string, v uint64) []byte {
	b = append(b, ';')
	b = append(b, name...)
	b = append(b, '=')
	return strconv.AppendUint(b, v, 10)
}

func appendInt(b []byte, name string, v int) []byte {
	b = append(b, ';')
	b = append(b, name...)
	b = append(b, '=')
	return strconv.AppendInt(b, int64(v), 10)
}

func appendBool(b []byte, name string, v bool) []byte {
	b = append(b, ';')
	b = append(b, name...)
	b = append(b, '=')
	return strconv.AppendBool(b, v)
}

// appendString writes a length-prefixed string so no value can fake a field
// separator (benchmark and scheme names are short identifiers, but the
// encoding should not rely on that).
func appendString(b []byte, name, v string) []byte {
	b = append(b, ';')
	b = append(b, name...)
	b = append(b, '=')
	b = strconv.AppendInt(b, int64(len(v)), 10)
	b = append(b, ':')
	return append(b, v...)
}

func appendSystem(b []byte, s config.System) []byte {
	b = appendORAM(b, s.ORAM)
	b = appendDRAM(b, s.DRAM)
	b = appendCache(b, "llc", s.LLC)
	b = appendCache(b, "l1", s.L1)
	b = appendCPU(b, s.CPU)
	b = appendScheme(b, s.Scheme)
	b = appendUint(b, "seed", s.Seed)
	b = append(b, ';')
	return b
}

func appendORAM(b []byte, o config.ORAM) []byte {
	b = appendInt(b, "o.levels", o.Levels)
	b = appendInt(b, "o.top", o.TopLevels)
	b = append(b, ";o.z="...)
	for i, z := range o.Z {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(z), 10)
	}
	b = appendUint(b, "o.user", o.UserBlocks)
	b = appendInt(b, "o.stash", o.StashCapacity)
	b = appendInt(b, "o.evictthr", o.StashEvictThreshold)
	b = appendInt(b, "o.sstashways", o.SStashWays)
	b = appendInt(b, "o.plbentries", o.PLBEntries)
	b = appendInt(b, "o.plbways", o.PLBWays)
	b = appendUint(b, "o.intervalt", o.IntervalT)
	b = appendUint(b, "o.onchip", o.OnChipLatency)
	return b
}

func appendDRAM(b []byte, d config.DRAM) []byte {
	b = appendInt(b, "d.ch", d.Channels)
	b = appendInt(b, "d.banks", d.BanksPerChannel)
	b = appendInt(b, "d.row", d.RowBytes)
	b = appendInt(b, "d.ratio", d.CPUCyclesPerDRAMCycle)
	b = appendInt(b, "d.trcd", d.TRCD)
	b = appendInt(b, "d.tcas", d.TCAS)
	b = appendInt(b, "d.trp", d.TRP)
	b = appendInt(b, "d.tburst", d.TBurst)
	b = appendInt(b, "d.twr", d.TWR)
	return b
}

func appendCache(b []byte, prefix string, c config.Cache) []byte {
	b = appendInt(b, prefix+".cap", c.CapacityBytes)
	b = appendInt(b, prefix+".ways", c.Ways)
	b = appendUint(b, prefix+".hit", c.HitLatency)
	return b
}

func appendCPU(b []byte, c config.CPU) []byte {
	b = appendInt(b, "c.ipc", c.IPC)
	b = appendInt(b, "c.wq", c.WriteQueueDepth)
	b = appendInt(b, "c.mlp", c.MLP)
	return b
}

func appendScheme(b []byte, s config.Scheme) []byte {
	// Name does not influence simulation (labels only), but it costs a few
	// bytes to include and keeps the encoder total over the struct — the
	// property the coverage guard checks.
	b = appendString(b, "s.name", s.Name)
	b = appendInt(b, "s.top", int(s.Top))
	b = appendBool(b, "s.dwb", s.DWB)
	b = appendBool(b, "s.dremap", s.DelayedRemap)
	b = appendBool(b, "s.premap", s.ProactiveRemap)
	b = appendBool(b, "s.rho", s.Rho)
	b = appendInt(b, "s.rhodelta", s.RhoLevelsDelta)
	b = appendInt(b, "s.rhoz", s.RhoZ)
	b = appendInt(b, "s.rhopat", s.RhoPattern)
	b = appendBool(b, "s.ring", s.Ring)
	b = appendInt(b, "s.rings", s.RingS)
	b = appendInt(b, "s.ringa", s.RingA)
	return b
}

var guardOnce sync.Once

// covered lists, per config struct type, exactly the fields the key encoder
// writes. mustCoverConfig compares these lists against the real struct
// shapes by reflection; any drift — a field added to config without a
// matching encoder line, or an encoder line naming a removed field — panics
// before the first key is built.
var covered = map[reflect.Type][]string{
	reflect.TypeOf(config.System{}): {"ORAM", "DRAM", "LLC", "L1", "CPU", "Scheme", "Seed"},
	reflect.TypeOf(config.ORAM{}): {
		"Levels", "TopLevels", "Z", "UserBlocks", "StashCapacity",
		"StashEvictThreshold", "SStashWays", "PLBEntries", "PLBWays",
		"IntervalT", "OnChipLatency",
	},
	reflect.TypeOf(config.DRAM{}): {
		"Channels", "BanksPerChannel", "RowBytes", "CPUCyclesPerDRAMCycle",
		"TRCD", "TCAS", "TRP", "TBurst", "TWR",
	},
	reflect.TypeOf(config.Cache{}): {"CapacityBytes", "Ways", "HitLatency"},
	reflect.TypeOf(config.CPU{}):   {"IPC", "WriteQueueDepth", "MLP"},
	reflect.TypeOf(config.Scheme{}): {
		"Name", "Top", "DWB", "DelayedRemap", "ProactiveRemap",
		"Rho", "RhoLevelsDelta", "RhoZ", "RhoPattern",
		"Ring", "RingS", "RingA",
	},
}

// mustCoverConfig panics unless every config struct's field set matches the
// encoder's covered list exactly. Exercised by the unit tests and, via
// sync.Once, before the first Key of every process.
func mustCoverConfig() {
	for t, fields := range covered {
		if err := coverageError(t, fields); err != nil {
			panic("cellcache: " + err.Error() +
				" — extend the key encoder in internal/cellcache/key.go" +
				" (a cell fingerprint that misses a field could serve stale results)")
		}
	}
}

// coverageError reports the first mismatch between a struct's real fields
// and the list the encoder claims to cover, in either direction.
func coverageError(t reflect.Type, fields []string) error {
	want := make(map[string]bool, len(fields))
	for _, f := range fields {
		if want[f] {
			return fmt.Errorf("%s: field %s listed twice in coverage table", t, f)
		}
		want[f] = true
	}
	var actual []string
	for i := 0; i < t.NumField(); i++ {
		actual = append(actual, t.Field(i).Name)
	}
	sort.Strings(actual)
	for _, name := range actual {
		if !want[name] {
			return fmt.Errorf("%s: field %s is not covered by the cell fingerprint", t, name)
		}
		delete(want, name)
	}
	for _, f := range fields {
		if want[f] {
			return fmt.Errorf("%s: encoder covers field %s which no longer exists", t, f)
		}
	}
	return nil
}
