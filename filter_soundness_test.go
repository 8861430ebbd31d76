package cachekv

// Read-path soundness tests: the memory component's active-key table and the
// block cache may cost a Get a wasted probe or a fall-back search, but never
// a key. An engine is run differentially against one without a block cache
// and a plain-map model over randomized workloads, with a simulated power
// failure mid-way — recovery must re-enter the recovered slots' keys in the
// volatile table before serving reads.

import (
	"fmt"
	"testing"

	"cachekv/internal/core"
	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
)

// disableAccelerators turns off the block cache: the reference run of the
// differential tests.
func disableAccelerators(o *core.Options) {
	o.LSM.BlockCacheBytes = -1
}

func openPair(t *testing.T) (db, noCache *DB) {
	t.Helper()
	db, err := Open(Options{Engine: EngineCacheKV, PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	noCache, err = Open(Options{Engine: EngineCacheKV, PMemMB: 1024, tune: disableAccelerators})
	if err != nil {
		t.Fatal(err)
	}
	return db, noCache
}

// TestFilterSoundnessDifferential drives the same randomized workload into an
// engine and one without a block cache in rounds, crashing both mid-way, and
// requires byte-identical Get results for every key ever touched plus a set
// of never-written keys. Any divergence is a key the active-key table lost
// (or a cache corruption).
func TestFilterSoundnessDifferential(t *testing.T) {
	db, noCache := openPair(t)
	model := map[string]string{}
	rng := sim.NewRNG(2024)

	const rounds = 4
	const opsPerRound = 3000
	for round := 0; round < rounds; round++ {
		ops := genOps(opsPerRound, uint64(1000+round))
		applyToModel(model, ops)
		applyToEngine(t, db, ops)
		applyToEngine(t, noCache, ops)

		// Mid-way: power failure on both engines. The table is DRAM-only, so
		// recovery must rebuild it from the persistent regions.
		if round == rounds/2-1 {
			var err error
			if db, err = db.SimulateCrash(); err != nil {
				t.Fatal(err)
			}
			if noCache, err = noCache.SimulateCrash(); err != nil {
				t.Fatal(err)
			}
		}

		sf := db.Session(1)
		su := noCache.Session(1)
		// Every key in the 500-key space: present ones must match the model
		// on both engines; absent ones must be not-found on both. A key the
		// table lost would surface here as a missing key.
		for i := 0; i < 500; i++ {
			k := fmt.Sprintf("key%04d", i)
			gf, errF := sf.Get([]byte(k))
			gu, errU := su.Get([]byte(k))
			want, inModel := model[k]
			if inModel {
				if errF != nil {
					t.Fatalf("round %d: engine lost %s: %v", round, k, errF)
				}
				if errU != nil {
					t.Fatalf("round %d: engine without a block cache lost %s: %v", round, k, errU)
				}
				if string(gf) != want || string(gu) != want {
					t.Fatalf("round %d: Get(%s) = %q, without a block cache %q, want %q",
						round, k, gf, gu, want)
				}
			} else {
				if errF != ErrNotFound || errU != ErrNotFound {
					t.Fatalf("round %d: Get(%s) absent key: %v, without a block cache %v",
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

	// The engine must actually have probed its table, and found keys absent.
	snap := db.Registry().Gather()
	probes, negatives := snap.Int(obs.MFilterProbes), snap.Int(obs.MFilterNegatives)
	if probes == 0 {
		t.Fatal("the engine reported zero table probes")
	}
	if negatives == 0 {
		t.Fatal("the engine reported zero table misses")
	}
	if negatives > probes {
		t.Fatalf("misses %d exceed probes %d", negatives, probes)
	}
	db.Close()
	noCache.Close()
}

// TestFilterRebuildAfterCrash writes, crashes immediately (no flush), and
// checks that recovery serves every key — the recovered slot's keys are
// re-entered in the active-key table, so a stale or empty table would lose
// keys here.
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
	// Misses still sound after the rebuild.
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
		t.Fatalf("disabled block cache rejected: %v", err)
	}
	s := db.Session(0)
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("k")); err != nil || string(v) != "v" {
		t.Fatalf("Get = %q, %v", v, err)
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
