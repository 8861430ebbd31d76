package cachekv

// Extends the filter-soundness suite (filter_soundness_test.go) across the
// crash dimension: TestFilterRebuildAfterCrash there exercises one scripted
// crash; here the fault-injection harness crashes the engine at a table of
// points through a 200-op workload — including torn-write schedules — and
// after each recovery the durability oracle's probe set must flow through
// the REBUILT memory-component filters. A filter rebuilt from a stale or
// truncated view would either lose keys (oracle violation) or answer no
// probes at all (probe counter stays zero).
//
// Recovery rebuilds one filter per recovered table. CacheKV merges every
// recovered table into its global index, which a Get probes instead of any
// table's filter, so the recovered engine whose reads go through those
// filters is PCSM+LIU: the same recovery, without sub-skiplist compaction.
// CacheKV's rebuilt index is held to the same oracle by the crash sweeps.

import (
	"testing"

	"cachekv/internal/faultinject"
	"cachekv/internal/hw/cache"
)

func TestFilterRebuildAcrossCrashPoints(t *testing.T) {
	spec, ok := faultinject.FindEngine("pcsm+liu")
	if !ok {
		t.Fatal("pcsm+liu engine spec missing")
	}
	fam, err := faultinject.NewFamily("single-key", 9, 200)
	if err != nil {
		t.Fatal(err)
	}
	total, _, err := faultinject.Count(spec, cache.EADR, fam)
	if err != nil {
		t.Fatal(err)
	}

	points := []struct {
		name    string
		crashAt int64
	}{
		{"first-event", 1},
		{"quarter", total / 4},
		{"midpoint", total / 2},
		{"three-quarters", 3 * total / 4},
		{"last-event", total},
	}
	faults := []faultinject.Fault{faultinject.FaultNone, faultinject.FaultTorn}
	for _, p := range points {
		for _, fault := range faults {
			t.Run(p.name+"/"+fault.String(), func(t *testing.T) {
				r := faultinject.Run(spec, cache.EADR, fam, p.crashAt, fault, nil)
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
				if !r.Frozen {
					t.Fatalf("crash point %d not reached (workload generated %d events)", p.crashAt, r.Events)
				}
				// The oracle probed every key in the universe through the
				// recovered engine; those reads must have consulted the
				// rebuilt filters — unless the crash came before any write
				// and there was no table to rebuild one for.
				if len(r.Recovered) == 0 && r.FilterProbes == 0 {
					return
				}
				if r.FilterProbes == 0 {
					t.Fatal("recovered engine answered the oracle without consulting its rebuilt filters")
				}
				// With ~48 live keys and a universe that includes never-
				// written ghost keys, a sound rebuilt filter must short-
				// circuit at least some probes negatively.
				if r.FilterNegatives == 0 {
					t.Fatalf("rebuilt filters produced no negative verdicts across %d probes", r.FilterProbes)
				}
			})
		}
	}
}
