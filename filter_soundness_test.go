package cachekv

// Filter-soundness tests: the memory-component negative filters may produce
// false positives (wasted probes) but never false negatives (lost keys). A
// filtered engine is run differentially against a filter-disabled engine and
// a plain-map model over randomized workloads, with a simulated power failure
// mid-way — recovery must rebuild the volatile filters before serving reads.

import (
	"fmt"
	"testing"

	"cachekv/internal/core"
	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
)

// disableAccelerators turns off the memory component's negative filters and
// the block cache: the reference run of the differential tests.
func disableAccelerators(o *core.Options) {
	o.FilterBitsPerKey, o.LSM.BlockCacheBytes = -1, -1
}

func openPair(t *testing.T) (filtered, unfiltered *DB) {
	t.Helper()
	filtered, err := Open(Options{Engine: EngineCacheKV, PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	unfiltered, err = Open(Options{Engine: EngineCacheKV, PMemMB: 1024, tune: disableAccelerators})
	if err != nil {
		t.Fatal(err)
	}
	return filtered, unfiltered
}

// TestFilterSoundnessDifferential drives the same randomized workload into a
// filtered and an unfiltered engine in rounds, crashing both mid-way, and
// requires byte-identical Get results for every key ever touched plus a set
// of never-written keys. Any divergence is a filter false negative (or a
// cache corruption).
func TestFilterSoundnessDifferential(t *testing.T) {
	filtered, unfiltered := openPair(t)
	model := map[string]string{}
	rng := sim.NewRNG(2024)

	const rounds = 4
	const opsPerRound = 3000
	for round := 0; round < rounds; round++ {
		ops := genOps(opsPerRound, uint64(1000+round))
		applyToModel(model, ops)
		applyToEngine(t, filtered, ops)
		applyToEngine(t, unfiltered, ops)

		// Mid-way: power failure on both engines. The filters are DRAM-only,
		// so recovery must rebuild them from the persistent regions.
		if round == rounds/2-1 {
			var err error
			if filtered, err = filtered.SimulateCrash(); err != nil {
				t.Fatal(err)
			}
			if unfiltered, err = unfiltered.SimulateCrash(); err != nil {
				t.Fatal(err)
			}
		}

		sf := filtered.Session(1)
		su := unfiltered.Session(1)
		// Every key in the 500-key space: present ones must match the model
		// on both engines; absent ones must be not-found on both. A filter
		// false negative would surface here as a missing key on the filtered
		// engine only.
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key%04d", i)
			gf, errF := sf.Get([]byte(k))
			gu, errU := su.Get([]byte(k))
			want, inModel := model[k]
			if inModel {
				if errF != nil {
					t.Fatalf("round %d: filtered engine lost %s: %v", round, k, errF)
				}
				if errU != nil {
					t.Fatalf("round %d: unfiltered engine lost %s: %v", round, k, errU)
				}
				if string(gf) != want || string(gu) != want {
					t.Fatalf("round %d: Get(%s) filtered=%q unfiltered=%q want %q",
						round, k, gf, gu, want)
				}
			} else {
				if errF != ErrNotFound || errU != ErrNotFound {
					t.Fatalf("round %d: Get(%s) absent key: filtered=%v unfiltered=%v",
						round, k, errF, errU)
				}
			}
		}
		// Never-written keys exercise the negative path hard.
		for i := 0; i < 200; i++ {
			k := fmt.Sprintf("ghost%08d", rng.Intn(1<<30))
			if _, err := sf.Get([]byte(k)); err != ErrNotFound {
				t.Fatalf("round %d: ghost key %s: %v", round, k, err)
			}
		}
	}

	// The filtered engine must actually have used its filters.
	snap := filtered.Registry().Gather()
	probes, negatives := snap.Int(obs.MFilterProbes), snap.Int(obs.MFilterNegatives)
	if probes == 0 {
		t.Fatal("filtered engine reported zero filter probes")
	}
	if negatives == 0 {
		t.Fatal("filtered engine reported zero filter negatives")
	}
	if negatives > probes {
		t.Fatalf("negatives %d exceed probes %d", negatives, probes)
	}
	// And the unfiltered baseline must not have.
	if n := unfiltered.Registry().Gather().Int(obs.MFilterProbes); n != 0 {
		t.Fatalf("filter-disabled engine reported %d probes", n)
	}
	filtered.Close()
	unfiltered.Close()
}

// TestFilterRebuildAfterCrash writes, crashes immediately (no flush), and
// checks that recovery serves every key — the recovered imm tables carry
// freshly rebuilt filters, so a stale/empty filter would lose keys here.
func TestFilterRebuildAfterCrash(t *testing.T) {
	db, err := Open(Options{Engine: EngineCacheKV, PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session(0)
	const n = 2000
	for i := 0; i < n; i++ {
		if err := s.Put([]byte(fmt.Sprintf("crash%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session(0)
	for i := 0; i < n; i++ {
		got, err := s2.Get([]byte(fmt.Sprintf("crash%05d", i)))
		if err != nil {
			t.Fatalf("key crash%05d lost across crash: %v", i, err)
		}
		if want := fmt.Sprintf("v%d", i); string(got) != want {
			t.Fatalf("crash%05d = %q, want %q", i, got, want)
		}
	}
	// Negative probes still sound after the rebuild.
	for i := 0; i < 500; i++ {
		if _, err := s2.Get([]byte(fmt.Sprintf("never%05d", i))); err != ErrNotFound {
			t.Fatalf("never%05d: %v", i, err)
		}
	}
}

// TestValidateOptions covers the Open-time validation of negative knobs.
func TestValidateOptions(t *testing.T) {
	bad := []Options{
		{SubMemTableKB: -4},
		{FlushThreads: -2},
		{PMemMB: -4096},
		{Cores: -24},
		{Shards: -2},
		{CompactionWorkers: -1},
		{WriteStallDeadline: -1},
	}
	for _, o := range bad {
		if _, err := Open(o); err == nil {
			t.Fatalf("Open(%+v) accepted a negative knob", o)
		}
	}
	// The engine's own "disable" values stay reachable through the hook.
	db, err := Open(Options{tune: disableAccelerators})
	if err != nil {
		t.Fatalf("disabled filters and block cache rejected: %v", err)
	}
	s := db.Session(0)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if n := db.Registry().Gather().Int(obs.MFilterProbes); n != 0 {
		t.Fatalf("disabled filters still probed %d times", n)
	}
	db.Close()
}

// TestMetricsExposesReadPathCounters checks the registry's block-cache
// counters move.
func TestMetricsExposesReadPathCounters(t *testing.T) {
	db, err := Open(Options{Engine: EngineCacheKV, PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := 0; i < 4000; i++ {
		s.Put([]byte(fmt.Sprintf("m%05d", i)), []byte("value"))
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4000; i++ {
		s.Get([]byte(fmt.Sprintf("m%05d", i)))
	}
	snap := db.Registry().Gather()
	if snap.Int(obs.MBlockCacheHits)+snap.Int(obs.MBlockCacheMisses) == 0 {
		t.Fatal("block cache saw no traffic after flushed reads")
	}
	if r := snap.Float(obs.MBlockCacheRatio); r < 0 || r > 1 {
		t.Fatalf("hit ratio %v out of range", r)
	}
}
