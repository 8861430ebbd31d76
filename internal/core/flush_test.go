package core

import (
	"fmt"
	"slices"
	"testing"

	"cachekv/internal/obs"
)

// flushLoad opens an engine of the given flush servers with a pool of many
// small sub-MemTables and a trace, writes puts keys on one thread, and calls
// FlushAll. It returns the engine (closed by the test's cleanup), the
// caller's clock after FlushAll, and the trace.
//
// The pool hands the writer its slots by its virtual clock, however far the
// host's flush worker has got, so the seals, and so the flushes' bookings,
// fall at the same virtual times in every run.
func flushLoad(t *testing.T, servers, puts int) (*Engine, int64, *obs.Trace) {
	t.Helper()
	m := testMachine()
	o := smallOpts()
	o.FlushThreads = servers
	o.PoolBytes = 4 << 20 // 32 slots: the seals below never wait on a free one
	o.ImmZoneBytes = 8 << 20
	o.Trace = obs.NewTrace(0)
	e, th := openEngine(t, m, o)
	t.Cleanup(func() { e.Close(th) })
	for i := range puts {
		if err := e.Put(th, []byte(fmt.Sprintf("key%06d", i)), make([]byte, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	return e, th.Clock.Now(), o.Trace
}

// flushTimeline reads the trace: the slots in seal order, the slots in
// flush_end order, and each flush's booked completion (the time its slot
// frees) in flush_end order.
func flushTimeline(tr *obs.Trace) (sealed, flushed []int, freeAt []int64) {
	for _, ev := range tr.Events() {
		switch ev.Type {
		case "memtable_seal":
			sealed = append(sealed, ev.Attrs["slot"].(int))
		case "flush_end":
			flushed = append(flushed, ev.Attrs["slot"].(int))
			freeAt = append(freeAt, ev.Attrs["free_at"].(int64))
		}
	}
	return sealed, flushed, freeAt
}

// TestFlushServersCopySideBySide: at four flush servers, one writer sealing
// tables back to back gets their copies run side by side in virtual time —
// the fourth table's flush completes within two table durations of the
// first's, where one server would take three more — while the one host
// worker finishes them in seal order.
func TestFlushServersCopySideBySide(t *testing.T) {
	e, _, tr := flushLoad(t, 4, 6000)
	if got := e.flushes.Server.Size(); got != 4 {
		t.Fatalf("FlushThreads = 4 opened %d flush servers", got)
	}
	sealed, flushed, freeAt := flushTimeline(tr)
	if len(sealed) < 4 {
		t.Fatalf("the load sealed %d tables, want at least 4", len(sealed))
	}
	if !slices.Equal(sealed, flushed) {
		t.Fatalf("flush_end slots %v, want the seal order %v", flushed, sealed)
	}
	jobs, busy := e.flushes.Server.Stats()
	table := busy / jobs
	if spread := freeAt[3] - freeAt[0]; spread >= 2*table {
		t.Fatalf("the first four flushes completed %d vns apart, want under two table durations (2 × %d): they ran one after another", spread, table)
	}
}

// TestFlushAllWaitsForTheLastFlushServer: with several flush servers, some
// idle while one still copies, FlushAll returns its caller no earlier than
// the last flush's completion.
func TestFlushAllWaitsForTheLastFlushServer(t *testing.T) {
	_, clock, tr := flushLoad(t, 4, 2400)
	_, _, freeAt := flushTimeline(tr)
	if len(freeAt) == 0 {
		t.Fatal("the load flushed nothing")
	}
	if last := slices.Max(freeAt); clock < last {
		t.Fatalf("FlushAll returned at %d vns, before the flush that ended at %d", clock, last)
	}
}

// TestServerCounters: each kind's virtual server counts its jobs and the time
// they kept it busy. The flush server books one job per flush — at least
// engine_flushes, which leaves out flushes of empty slots — and no server is
// busier than the elapsed virtual time times its server count. FlushAll
// leaves no sync queued, so the index counters are final when it returns.
func TestServerCounters(t *testing.T) {
	for _, servers := range []int{1, 4} {
		t.Run(fmt.Sprintf("%d flush servers", servers), func(t *testing.T) {
			e, clock, _ := flushLoad(t, servers, 6000)
			r := obs.NewRegistry()
			e.RegisterObs(r)
			snap := r.Gather()
			if jobs, flushes := snap.Int("flush_jobs"), snap.Int("engine_flushes"); flushes == 0 || jobs < flushes {
				t.Fatalf("flush_jobs = %d, engine_flushes = %d", jobs, flushes)
			}
			for kind, n := range map[string]int{"flush": servers, "spill": 1, "index": 1, "compact": 1} {
				jobs, busy := snap.Int(kind+"_jobs"), snap.Int(kind+"_busy_ns")
				if busy < 0 || busy > clock*int64(n) || (jobs == 0) != (busy == 0) {
					t.Errorf("%s: %d jobs kept %d servers busy %d vns in %d elapsed", kind, jobs, n, busy, clock)
				}
			}
			if snap.Int("index_jobs") == 0 {
				t.Error("no index sync was counted")
			}
			if n := e.pendingSyncs.Load(); n != 0 {
				t.Errorf("%d trigger-2 syncs still queued after FlushAll", n)
			}
		})
	}
}
