package faultinject

import (
	"runtime"
	"testing"
)

// TestCrossShardWorkloadShape pins the generator's contract: every put batch
// spans at least two shards (so every mutation takes the two-phase path),
// keys are unique per put batch, and regeneration is deterministic.
func TestCrossShardWorkloadShape(t *testing.T) {
	wl := NewBatchWorkload(3, 80, crossShardShards)
	seen := make(map[string]int)
	puts, dels := 0, 0
	for i, b := range wl.Batches {
		if b.Delete {
			dels++
			if tb := wl.Batches[b.Target]; tb.Delete || b.Target >= i {
				t.Fatalf("batch %d deletes an invalid target %d", i, b.Target)
			}
			continue
		}
		puts++
		shards := make(map[int]bool)
		for _, k := range b.Keys {
			if prev, dup := seen[k]; dup {
				t.Fatalf("key %q appears in put batches %d and %d", k, prev, i)
			}
			seen[k] = i
			shards[shardOfKey(k, crossShardShards)] = true
		}
		if len(shards) < 2 {
			t.Fatalf("put batch %d spans only %d shard(s)", i, len(shards))
		}
	}
	if puts == 0 || dels == 0 {
		t.Fatalf("degenerate workload: %d puts, %d deletes", puts, dels)
	}
	wl2 := NewBatchWorkload(3, 80, crossShardShards)
	for i := range wl.Batches {
		a, b := wl.Batches[i], wl2.Batches[i]
		if a.Delete != b.Delete || a.Target != b.Target || len(a.Keys) != len(b.Keys) {
			t.Fatalf("batch %d not reproducible", i)
		}
	}
}

// TestCrashSweepCrossShard is the CI cross-shard sweep (the -run TestCrashSweep
// step picks it up): a seeded sample of crash points under both persistence
// domains with all three fault modes, checked by the all-or-nothing oracle —
// no half-applied two-phase group may survive recovery.
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
// two events (inside the very first prepare record) and the last two (the
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
// against the sharded router, covering the group-commit write path (WAL
// append + fence per coalesced group) under crash schedules with the standard
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
