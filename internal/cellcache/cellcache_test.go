package cellcache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"iroram/internal/config"
	"iroram/internal/sim"
)

func quickKey(mut func(*config.System)) string {
	cfg := config.Tiny().WithScheme(config.Baseline())
	cfg.Seed = 1
	if mut != nil {
		mut(&cfg)
	}
	return Key(cfg, "gcc", 2000, 0)
}

// TestKeyIdentity: the fingerprint is a pure function of the cell — equal
// inputs give equal keys, including a fresh but value-equal Z profile slice.
func TestKeyIdentity(t *testing.T) {
	if quickKey(nil) != quickKey(nil) {
		t.Fatal("identical cells produced different keys")
	}
	fresh := quickKey(func(s *config.System) {
		s.ORAM.Z = append(config.ZProfile(nil), s.ORAM.Z...)
	})
	if fresh != quickKey(nil) {
		t.Fatal("value-equal Z profile in a fresh slice changed the key")
	}
}

// TestKeyDistinct: every axis the issue names — scheme, Z profile, seed,
// requests, epoch interval — plus the benchmark must separate keys.
func TestKeyDistinct(t *testing.T) {
	base := quickKey(nil)
	variants := map[string]string{
		"scheme": quickKey(func(s *config.System) {
			*s = config.Tiny().WithScheme(config.IRDWBScheme())
			s.Seed = 1
		}),
		"zprofile": quickKey(func(s *config.System) {
			s.ORAM.Z = append(config.ZProfile(nil), s.ORAM.Z...)
			s.ORAM.Z[12] = 3
		}),
		"seed": quickKey(func(s *config.System) { s.Seed = 2 }),
		"interval": quickKey(func(s *config.System) {
			s.ORAM.IntervalT = 0
		}),
		"mlp": quickKey(func(s *config.System) { s.CPU.MLP = 1 }),
	}
	cfg := config.Tiny().WithScheme(config.Baseline())
	cfg.Seed = 1
	variants["bench"] = Key(cfg, "mcf", 2000, 0)
	variants["requests"] = Key(cfg, "gcc", 1000, 0)
	variants["epoch"] = Key(cfg, "gcc", 2000, 500)

	seen := map[string]string{base: "base"}
	for name, k := range variants {
		if k == base {
			t.Errorf("%s variant has the same key as base", name)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s and %s variants collide", name, prev)
		}
		seen[k] = name
	}
}

// TestKeyProfileEquivalence pins the cross-figure dedup the scheduler relies
// on: an explicit Z-profile override that equals the profile WithScheme
// installs (Fig 12's IR-Alloc4 vs Fig 10's standalone IR-Alloc) maps to the
// same key.
func TestKeyProfileEquivalence(t *testing.T) {
	viaScheme := config.Tiny().WithScheme(config.IRAllocScheme())
	viaScheme.Seed = 1
	viaProfile := config.Tiny().WithScheme(config.IRAllocScheme())
	viaProfile.ORAM.Z = config.Alloc4Profile(viaProfile.ORAM.Levels, viaProfile.ORAM.TopLevels)
	viaProfile.Seed = 1
	if Key(viaScheme, "gcc", 2000, 0) != Key(viaProfile, "gcc", 2000, 0) {
		t.Fatal("value-equal configs resolved through different paths got different keys")
	}
}

// TestDoSingleFlight: N concurrent requesters for one key run compute
// exactly once; everyone gets the same result; exactly one caller reports a
// miss.
func TestDoSingleFlight(t *testing.T) {
	c := New()
	var computes atomic.Int64
	var hits atomic.Int64
	started := make(chan struct{})
	release := make(chan struct{})

	const n = 8
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, hit, err := c.Do("k", func() (sim.Result, error) {
				computes.Add(1)
				close(started)
				<-release // hold the entry in flight so duplicates queue behind it
				return sim.Result{Cycles: 42}, nil
			})
			if err != nil {
				t.Errorf("unexpected error: %v", err)
			}
			if res.Cycles != 42 {
				t.Errorf("got Cycles=%d, want 42", res.Cycles)
			}
			if hit {
				hits.Add(1)
			}
		}()
	}
	// Whether a duplicate blocks on the in-flight entry or arrives after
	// completion, it counts as a hit either way — no scheduling assumption
	// needed beyond "compute started".
	<-started
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if got := hits.Load(); got != n-1 {
		t.Errorf("%d hits, want %d", got, n-1)
	}
	// Late requester: O(1) completed hit.
	if _, hit, _ := c.Do("k", func() (sim.Result, error) {
		t.Error("compute ran for a completed entry")
		return sim.Result{}, nil
	}); !hit {
		t.Error("completed entry not reported as hit")
	}
}

// TestDoDistinctKeys: distinct keys compute independently.
func TestDoDistinctKeys(t *testing.T) {
	c := New()
	for i := 0; i < 3; i++ {
		key := fmt.Sprintf("k%d", i)
		want := uint64(i + 1)
		res, hit, err := c.Do(key, func() (sim.Result, error) {
			return sim.Result{Cycles: want}, nil
		})
		if err != nil || hit || res.Cycles != want {
			t.Errorf("key %s: res=%d hit=%v err=%v", key, res.Cycles, hit, err)
		}
	}
	// Each key holds its own entry: a repeat request hits with its value.
	for i := 0; i < 3; i++ {
		res, hit, _ := c.Do(fmt.Sprintf("k%d", i), func() (sim.Result, error) {
			t.Error("compute re-ran for a stored key")
			return sim.Result{}, nil
		})
		if !hit || res.Cycles != uint64(i+1) {
			t.Errorf("repeat k%d: res=%d hit=%v", i, res.Cycles, hit)
		}
	}
}

// TestDoMemoizesError: a failed cell reports the identical error to every
// requester, first and late.
func TestDoMemoizesError(t *testing.T) {
	c := New()
	boom := errors.New("boom")
	if _, _, err := c.Do("k", func() (sim.Result, error) {
		return sim.Result{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("first requester got %v, want boom", err)
	}
	_, hit, err := c.Do("k", func() (sim.Result, error) {
		t.Error("compute re-ran after a memoized error")
		return sim.Result{}, nil
	})
	if !hit || !errors.Is(err, boom) {
		t.Errorf("late requester: hit=%v err=%v, want memoized boom", hit, err)
	}
}
