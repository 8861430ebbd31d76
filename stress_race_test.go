package cachekv

// Race stress: one session per simulated core running a mixed workload
// concurrently against the shared block cache and the slot filters, with a
// simulated power failure between rounds. Run with -race; the assertions are
// deliberately weak (no lost updates for thread-owned keys) because the value
// of the test is the detector coverage over the lock-free filter paths, the
// sharded cache, and recovery.

import (
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
)

func TestStressConcurrentSessions(t *testing.T) {
	const cores = 4
	const rounds = 3
	const opsPerCore = 1500

	db, err := Open(Options{Engine: EngineCacheKV, PMemMB: 1024, Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for core := 0; core < cores; core++ {
			wg.Add(1)
			go func(core int) {
				defer wg.Done()
				s := db.Session(core)
				rng := sim.NewRNG(uint64(round*100 + core))
				for i := 0; i < opsPerCore; i++ {
					// Thread-owned keys avoid cross-thread ordering assertions;
					// shared keys still collide through the filters and cache.
					own := fmt.Sprintf("c%d-k%04d", core, rng.Intn(400))
					shared := fmt.Sprintf("shared-k%04d", rng.Intn(200))
					switch rng.Intn(10) {
					case 0, 1, 2:
						if err := s.Put([]byte(own), []byte(fmt.Sprintf("r%d-i%d", round, i))); err != nil {
							t.Errorf("core %d Put: %v", core, err)
							return
						}
					case 3:
						if err := s.Put([]byte(shared), []byte("sv")); err != nil {
							t.Errorf("core %d Put shared: %v", core, err)
							return
						}
					case 4, 5, 6:
						if _, err := s.Get([]byte(own)); err != nil && err != ErrNotFound {
							t.Errorf("core %d Get: %v", core, err)
							return
						}
					case 7:
						if _, err := s.Get([]byte(fmt.Sprintf("absent-%d", rng.Intn(1<<20)))); err != ErrNotFound {
							t.Errorf("core %d Get absent: %v", core, err)
							return
						}
					case 8:
						if _, err := s.Scan([]byte(fmt.Sprintf("c%d-", core)), 20, func(k, v []byte) bool { return true }); err != nil {
							t.Errorf("core %d Scan: %v", core, err)
							return
						}
					case 9:
						if err := s.Delete([]byte(own)); err != nil {
							t.Errorf("core %d Delete: %v", core, err)
							return
						}
					}
				}
			}(core)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		// Crash between rounds: all sessions quiesced, recover, keep going on
		// the recovered store.
		db, err = db.SimulateCrash()
		if err != nil {
			t.Fatalf("round %d crash/recover: %v", round, err)
		}
	}
	// Post-stress sanity: the store still serves a coherent view.
	s := db.Session(0)
	if err := s.Put([]byte("final"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, err := s.Get([]byte("final")); err != nil || string(v) != "ok" {
		t.Fatalf("final Get = %q, %v", v, err)
	}
	if db.Registry().Gather().Int(obs.MFilterProbes) == 0 {
		t.Fatal("stress run never probed a filter")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}
