package faultinject

import (
	"errors"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

var bothDomains = []cache.Domain{cache.ADR, cache.EADR}

// TestCrashSweepBounded is the CI crash sweep: a seeded sample of crash
// points for every engine variant under both persistence domains, with all
// three fault modes. Every failure prints its reproduction tuple; re-running
// Run with that tuple replays the identical event stream.
func TestCrashSweepBounded(t *testing.T) {
	per := 12
	if testing.Short() {
		per = 4
	}
	stats, err := Sweep(SweepConfig{
		Engines:            AllEngines(),
		Domains:            bothDomains,
		Families:           []Family{singleKeyFamily(1, 200)},
		SchedulesPerConfig: per,
		ScheduleSeed:       7,
		Faults:             []Fault{FaultNone, FaultTorn, FaultFlip},
		Parallel:           runtime.GOMAXPROCS(0),
		Log:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("bounded sweep: %d schedules", stats.Runs)
	for _, r := range stats.Failures {
		t.Error(r.Err())
	}
}

// TestCrashSweepEdges pins the boundary crash points — the very first event,
// the second, and the last two — where off-by-one bugs in the acked-prefix
// accounting would concentrate.
func TestCrashSweepEdges(t *testing.T) {
	engines := AllEngines()
	if testing.Short() {
		var keep []EngineSpec
		for _, s := range engines {
			switch s.Name {
			case "cachekv", "novelsm", "slm-db":
				keep = append(keep, s)
			}
		}
		engines = keep
	}
	fam := singleKeyFamily(1, 200)
	for _, spec := range engines {
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
}

// TestEventStreamDeterminism re-counts the same workload twice per engine and
// domain: the event totals and the FNV fingerprint of the full
// (op, addr, len) stream must match exactly. This is the precondition for
// every reproduction claim the harness makes.
func TestEventStreamDeterminism(t *testing.T) {
	engines := AllEngines()
	if testing.Short() {
		engines = engines[:3]
	}
	fam := singleKeyFamily(1, 200)
	for _, spec := range engines {
		for _, domain := range bothDomains {
			n1, h1, err := Count(spec, domain, fam)
			if err != nil {
				t.Fatal(err)
			}
			n2, h2, err := Count(spec, domain, fam)
			if err != nil {
				t.Fatal(err)
			}
			if n1 != n2 || h1 != h2 {
				t.Errorf("%s/%s: event stream not deterministic: (%d, %#x) vs (%d, %#x)",
					spec.Name, domain, n1, h1, n2, h2)
			}
		}
	}
}

// TestScheduleReplayDeterminism runs the same schedules twice and demands
// bit-identical results: stream hash, in-flight op, violations, and the full
// recovered view. Torn and flip faults derive their randomness from the
// schedule tuple, so they too must replay exactly.
func TestScheduleReplayDeterminism(t *testing.T) {
	spec, _ := FindEngine("cachekv")
	nov, _ := FindEngine("novelsm")
	sharded, _ := FindEngine(shardedEngineName)
	single, batches, stall := singleKeyFamily(1, 200), crossShardFamily(1, 40), stallFamily(42, 3)
	cases := []struct {
		spec    EngineSpec
		fam     Family
		domain  cache.Domain
		crashAt int64
		fault   Fault
	}{
		{spec, single, cache.EADR, 180, FaultNone},
		{spec, single, cache.EADR, 46, FaultFlip}, // regression: the corrupt-count schedule
		{spec, single, cache.ADR, 99, FaultTorn},
		{nov, single, cache.ADR, 123, FaultTorn},
		{sharded, batches, cache.EADR, 33, FaultNone},
		{sharded, batches, cache.ADR, 57, FaultTorn},
		{sharded, batches, cache.EADR, 71, FaultFlip},
		{sharded, stall, cache.ADR, 37, FaultTorn},
		{sharded, stall, cache.EADR, 21, FaultFlip},
	}
	for _, c := range cases {
		a := Run(c.spec, c.domain, c.fam, c.crashAt, c.fault, nil)
		b := Run(c.spec, c.domain, c.fam, c.crashAt, c.fault, nil)
		if a.StreamHash != b.StreamHash || a.Inflight != b.Inflight || a.Events != b.Events {
			t.Errorf("{%s}: replay diverged: hash %#x/%#x inflight %d/%d events %d/%d",
				a.Schedule, a.StreamHash, b.StreamHash, a.Inflight, b.Inflight, a.Events, b.Events)
		}
		if !reflect.DeepEqual(a.Violations, b.Violations) {
			t.Errorf("{%s}: replay verdicts differ: %v vs %v", a.Schedule, a.Violations, b.Violations)
		}
		if !reflect.DeepEqual(a.Recovered, b.Recovered) {
			t.Errorf("{%s}: replay recovered views differ", a.Schedule)
		}
	}
}

// TestCorruptCountRegression pins the harness's first catch: a FaultFlip at
// event 46 of the seed-1 workload lands in a sub-MemTable header's packed
// entry counter, and recovery used to size the rebuilt negative filter from
// that unvalidated count (a multi-gigabyte allocation that hung the process).
// rebuildList now clamps the counter to what the data region can physically
// hold; the schedule must complete and satisfy the validity oracle.
func TestCorruptCountRegression(t *testing.T) {
	spec, _ := FindEngine("cachekv")
	r := Run(spec, cache.EADR, singleKeyFamily(1, 200), 46, FaultFlip, nil)
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if !r.Frozen {
		t.Fatal("schedule never reached its crash point")
	}
}

// TestSweepRejectsEventlessScript: a script that numbers no persistence event
// has no crash point to sweep. Seed 14's one op is a Get; the bounded sweep
// used to divide by the zero event total, the exhaustive one to report zero
// schedules as a clean sweep.
func TestSweepRejectsEventlessScript(t *testing.T) {
	fam := singleKeyFamily(14, 1)
	if s := fam.Script.Steps[0]; len(s.Muts) != 0 || s.Get == "" {
		t.Fatalf("seed 14's one op is %+v, no longer a Get", s)
	}
	spec, _ := FindEngine("cachekv")
	for _, per := range []int{2, 0} {
		_, err := Sweep(SweepConfig{
			Engines:            []EngineSpec{spec},
			Domains:            bothDomains,
			Families:           []Family{fam},
			SchedulesPerConfig: per,
		})
		if err == nil || !strings.Contains(err.Error(), "single-key/cachekv/ADR: script numbers no persistence events") {
			t.Errorf("schedules=%d: Sweep returned %v, want the no-events error", per, err)
		}
	}
}

// failingDB refuses the Put of one value.
type failingDB struct {
	kvstore.DB
	value string
}

func (f failingDB) Put(th *hw.Thread, key, value []byte) error {
	if string(value) == f.value {
		return errors.New("injected put failure")
	}
	return f.DB.Put(th, key, value)
}

// TestRunFailedStepIsFrontier: a step that fails before the crash point ends
// the script there, so it is the in-flight step and no later step was issued.
// Run used to leave Inflight at the script's end, and the oracle then demanded
// every never-issued write, burying the one real violation under "lost" ones.
func TestRunFailedStepIsFrontier(t *testing.T) {
	fam := singleKeyFamily(3, 120)
	k := 40
	for len(fam.Script.Steps[k].Muts) == 0 || fam.Script.Steps[k].Muts[0].Delete {
		k++
	}
	spec := shimSpec(false)
	open := spec.Open
	spec.Open = func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error) {
		db, err := open(m, th, tr)
		if err != nil {
			return nil, err
		}
		return failingDB{db, fam.Script.Steps[k].Muts[0].Value}, nil
	}
	r := Run(spec, cache.ADR, fam, 1<<40, FaultNone, nil)
	want := fmt.Sprintf("step %d failed before the crash point: injected put failure", k)
	if len(r.Violations) != 1 || r.Violations[0] != want {
		t.Errorf("violations %q, want exactly %q", r.Violations, want)
	}
	if r.Inflight != k || r.Frozen {
		t.Errorf("inflight %d frozen %v, want step %d and no freeze", r.Inflight, r.Frozen, k)
	}
}

// TestCrashSweepExhaustive enumerates EVERY crash point of the 200-op
// workload for every engine under both domains (the acceptance sweep,
// ~7.5k schedules). It is a manual target:
//
//	CRASHSWEEP_EXHAUSTIVE=1 go test ./internal/faultinject -run TestCrashSweepExhaustive -v -timeout 30m
func TestCrashSweepExhaustive(t *testing.T) {
	if os.Getenv("CRASHSWEEP_EXHAUSTIVE") == "" {
		t.Skip("set CRASHSWEEP_EXHAUSTIVE=1 to run the exhaustive sweep")
	}
	stats, err := Sweep(SweepConfig{
		Engines:            AllEngines(),
		Domains:            bothDomains,
		Families:           []Family{singleKeyFamily(1, 200)},
		SchedulesPerConfig: 0, // exhaustive
		Faults:             []Fault{FaultNone},
		Parallel:           runtime.GOMAXPROCS(0),
		Log:                t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exhaustive sweep: %d schedules", stats.Runs)
	for _, r := range stats.Failures {
		t.Error(r.Err())
	}
}
