package faultinject

import (
	"reflect"
	"runtime"
	"testing"
)

// TestCrossShardWorkloadShape pins the builder's contract: every batch spans
// at least two shards (so every mutation takes the batch-log path), keys are
// unique per put batch, a delete batch removes exactly one earlier put
// batch's keys, and regeneration is deterministic.
func TestCrossShardWorkloadShape(t *testing.T) {
	sc := crossShardFamily(3, 80).Script
	seen := make(map[string]int)
	puts, dels := 0, 0
	for i, s := range sc.Steps {
		shards := make(map[int]bool)
		for _, m := range s.Muts {
			shards[shardOfKey(m.Key)] = true
		}
		if len(shards) < 2 {
			t.Fatalf("batch %d spans only %d shard(s)", i, len(shards))
		}
		if s.Muts[0].Delete {
			dels++
			target, ok := seen[s.Muts[0].Key]
			if !ok || target >= i || len(s.Muts) != len(sc.Steps[target].Muts) {
				t.Fatalf("batch %d deletes an invalid target %d", i, target)
			}
			for j, m := range s.Muts {
				if !m.Delete || m.Key != sc.Steps[target].Muts[j].Key {
					t.Fatalf("batch %d is not the delete of put batch %d", i, target)
				}
			}
			continue
		}
		puts++
		for _, m := range s.Muts {
			if prev, dup := seen[m.Key]; dup {
				t.Fatalf("key %q appears in put batches %d and %d", m.Key, prev, i)
			}
			if m.Delete {
				t.Fatalf("batch %d mixes puts and deletes", i)
			}
			seen[m.Key] = i
		}
	}
	if puts == 0 || dels == 0 {
		t.Fatalf("degenerate workload: %d puts, %d deletes", puts, dels)
	}
	if again := crossShardFamily(3, 80).Script; !reflect.DeepEqual(sc, again) {
		t.Fatal("script not reproducible")
	}
}

// TestCrashSweepCrossShard is the CI cross-shard sweep (the -run TestCrashSweep
// step picks it up): a seeded sample of crash points under both persistence
// domains with all three fault modes, held to the oracle's atomic clause —
// no half-applied cross-shard batch may survive recovery.
func TestCrashSweepCrossShard(t *testing.T) {
	per := 10
	if testing.Short() {
		per = 4
	}
	spec, _ := FindEngine(shardedEngineName)
	stats, err := Sweep(SweepConfig{
		Engines:            []EngineSpec{spec},
		Domains:            bothDomains,
		Families:           []Family{crossShardFamily(1, 60)},
		SchedulesPerConfig: per,
		ScheduleSeed:       7,
		Faults:             []Fault{FaultNone, FaultTorn, FaultFlip},
		Parallel:           runtime.GOMAXPROCS(0),
		Log:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cross-shard sweep: %d schedules", stats.Runs)
	for _, r := range stats.Failures {
		t.Error(r.Err())
	}
}

// TestCrashSweepCrossShardEdges pins the boundary crash points — the first
// two events (inside the very first batch record) and the last two (the
// final batch's apply tail) — where off-by-one bugs in commit-point
// accounting would concentrate.
func TestCrashSweepCrossShardEdges(t *testing.T) {
	spec, _ := FindEngine(shardedEngineName)
	fam := crossShardFamily(1, 40)
	for _, domain := range bothDomains {
		total, _, err := Count(spec, domain, fam)
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range []int64{1, 2, total - 1, total} {
			r := Run(spec, domain, fam, k, FaultNone, nil)
			if err := r.Err(); err != nil {
				t.Errorf("edge crash point: %v", err)
			}
		}
	}
}

// TestCrashSweepShardedSingleKey runs the classic single-key workload sweep
// against the sharded router, covering its one-shard write path (the shard's
// own commit on the caller's core) under crash schedules with the standard
// oracle: durable under eADR, validity-only under ADR.
func TestCrashSweepShardedSingleKey(t *testing.T) {
	per := 8
	if testing.Short() {
		per = 3
	}
	spec, _ := FindEngine(shardedEngineName)
	stats, err := Sweep(SweepConfig{
		Engines:            []EngineSpec{spec},
		Domains:            bothDomains,
		Families:           []Family{singleKeyFamily(1, 200)},
		SchedulesPerConfig: per,
		ScheduleSeed:       9,
		Faults:             []Fault{FaultNone, FaultTorn},
		Parallel:           runtime.GOMAXPROCS(0),
		Log:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("sharded single-key sweep: %d schedules", stats.Runs)
	for _, r := range stats.Failures {
		t.Error(r.Err())
	}
}
