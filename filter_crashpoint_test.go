package cachekv

// Extends the read-path soundness suite (filter_soundness_test.go) across
// the crash dimension: TestFilterRebuildAfterCrash there exercises one
// scripted crash; here the fault-injection harness crashes the engine at a
// table of points through a 200-op workload — including torn-write
// schedules — and after each recovery the durability oracle's probe set
// flows through the REBUILT active-key table while a recovered slot awaits
// its flush. A table rebuilt from a stale or truncated view, or not at all,
// would lose keys (oracle violation).
//
// Recovery seals each live sub-MemTable and enters its keys in the table;
// the flush worker then copies the slot into the ImmZone, and from then on a
// Get finds those keys there without probing the table. The harness holds
// that copy back until the oracle is done (RunBeforeRecoveredFlush), so at
// every crash point that left a write the oracle's Gets probe the table. The
// engine is PCSM+LIU, whose Gets also search every recovered ImmZone table
// on its own; CacheKV's rebuilt index is held to the same oracle by the
// crash sweeps.

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
				r := faultinject.RunBeforeRecoveredFlush(spec, cache.EADR, fam, p.crashAt, fault, nil)
				if err := r.Err(); err != nil {
					t.Fatal(err)
				}
				if !r.Frozen {
					t.Fatalf("crash point %d not reached (workload generated %d events)", p.crashAt, r.Events)
				}
				// The oracle probed every key in the universe through the
				// recovered engine while its sealed slots awaited their
				// flush; those reads must have consulted the rebuilt table —
				// unless the crash came before any write and no slot was live.
				if len(r.Recovered) == 0 && r.FilterProbes == 0 {
					return
				}
				if r.FilterProbes == 0 {
					t.Fatal("recovered engine answered the oracle without consulting its rebuilt active-key table")
				}
				// With ~48 live keys and a universe that includes never-
				// written ghost keys, a sound rebuilt table must find some
				// keys in no active slot.
				if r.FilterNegatives == 0 || r.FilterNegatives > r.FilterProbes {
					t.Fatalf("rebuilt active-key table found %d of %d probed keys in no active slot", r.FilterNegatives, r.FilterProbes)
				}
			})
		}
	}
}
