package core

import (
	"fmt"
	"slices"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
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
	// A job is an extent of a table's copy: a table's duration is the
	// servers' busy time over the tables, not over the jobs.
	_, busy := e.flushes.Server.Stats()
	table := busy / e.stats.Flushes.Load()
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
// they kept it busy. flush_jobs counts extents — a table's copy books one job
// per extent, at least one — and engine_flushes counts tables, leaving out
// flushes of empty slots, so there are at least as many jobs as flushes; no
// server is busier than the elapsed virtual time times its server count.
// FlushAll leaves no sync queued, so the index counters are final when it
// returns.
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

// splitTable is one table's flush as sealAndFlush saw it.
type splitTable struct {
	sealedAt, freeAt int64
	jobs, busy       int64    // what the flush servers booked for it
	syncNs           int64    // what the index server booked for its final sync
	stores           []uint64 // the addresses of its ImmZone NT stores, in order
}

// fillSlot writes keys on th until its core's sub-MemTable holds exactly tail
// bytes (a multiple of 8); a tail of 0 only acquires the slot.
func fillSlot(t *testing.T, e *Engine, th *hw.Thread, tail uint64) *slot {
	t.Helper()
	if tail == 0 {
		s, err := e.pool.acquire(th, th.Core, 1, 0)
		if err != nil || s == nil {
			t.Fatalf("acquire: %v", err)
		}
		return s
	}
	for i := 0; ; i++ {
		var used uint64
		if s := e.pool.slotFor(th.Core); s != nil {
			_, _, used = unpackHdr(s.hdr.Load())
		}
		rest := tail - used
		if rest == 0 {
			return e.pool.slotFor(th.Core)
		}
		// A 1 000 B value fills 1 032 B; the last entry takes what is left,
		// its length header one byte or two.
		vlen := 1000
		if rest < 3000 {
			vlen = int(rest) - kvstore.EntryLen(8, 0)
			if vlen >= 128 {
				vlen--
			}
		}
		if err := e.Put(th, fmt.Appendf(nil, "k%07d", i), make([]byte, vlen)); err != nil {
			t.Fatal(err)
		}
	}
}

// sealAndFlush opens an engine of the given flush servers whose one writer
// fills its 4 MiB sub-MemTable to exactly tail bytes, seals it, and waits for
// the flush kind to copy it, with every other background kind idle.
func sealAndFlush(t *testing.T, servers int, tail uint64) (*Engine, splitTable) {
	t.Helper()
	m := testMachine()
	o := quietOpts()
	o.FlushThreads = servers
	o.SubMemTableBytes = 4 << 20
	o.PoolBytes = 12 << 20
	o.ImmZoneBytes = 16 << 20
	o.Trace = obs.NewTrace(0)
	e, th := openEngine(t, m, o)
	t.Cleanup(func() { e.Close(th) })
	s := fillSlot(t, e, th, tail)

	var st splitTable
	zone := e.immArena.Region()
	m.SetMemGate(func(op sim.MemOp, addr uint64, n int) int {
		if op == sim.MemOpNTWrite && zone.Addr <= addr && addr < zone.End() {
			st.stores = append(st.stores, addr) // the one flush worker stores
		}
		return n
	})
	jobs0, busy0 := e.flushes.Server.Stats()
	sync0 := e.syncBusyNs.Load()
	if e.pool.sealForCore(th, th.Core) != s {
		t.Fatal("the writer's slot did not seal")
	}
	e.queueSealed(th.Clock.Now(), s)
	e.flushes.Wait(func() bool { return e.pendingFlushes.Load() == 0 })
	m.SetMemGate(nil)
	if err := e.err(); err != nil {
		t.Fatal(err)
	}

	st.sealedAt = s.sealedAt.Load()
	jobs, busy := e.flushes.Server.Stats()
	st.jobs, st.busy, st.syncNs = jobs-jobs0, busy-busy0, e.syncBusyNs.Load()-sync0
	_, _, freeAt := flushTimeline(o.Trace)
	if len(freeAt) != 1 {
		t.Fatalf("%d flush_end events, want the one table's", len(freeAt))
	}
	st.freeAt = freeAt[0]
	return e, st
}

// oneServerBusy is what one flush server was booked for a table of each tail,
// recorded before a table's flush could split: at one server it must not
// move.
var oneServerBusy = map[uint64]int64{
	0:           250_000,
	8 << 10:     288_420,
	512<<10 - 8: 2_697_512,
	512 << 10:   2_697_540,
	1 << 20:     5_144_900,
	2 << 20:     10_039_620,
	2<<20 + 8:   10_039_667,
}

// TestFlushFloorBoundsSplitFlush: the extent rule splits a table into
// min(servers, tail / 512 KiB) extents, at least one, each a job on the flush
// servers, whose seams land on XPLines of the ImmZone; flushFloor, which
// acquire waits on, never lies past the time the slot frees; and at one
// server a flush is the one job it was before flushes split.
func TestFlushFloorBoundsSplitFlush(t *testing.T) {
	for _, servers := range []int{1, 2, 4, 6} {
		for _, tail := range []uint64{0, 8 << 10, 512<<10 - 8, 512 << 10, 1 << 20, 2 << 20, 2<<20 + 8} {
			t.Run(fmt.Sprintf("%d servers, %d B", servers, tail), func(t *testing.T) {
				e, st := sealAndFlush(t, servers, tail)
				if floor := flushFloor(e.m.Costs, st.sealedAt, tail, servers); st.freeAt < floor {
					t.Errorf("the slot freed at %d, before its floor %d", st.freeAt, floor)
				}
				want := max(1, min(int64(servers), int64(tail/(512<<10))))
				if st.jobs != want {
					t.Errorf("%d jobs booked, the rule says %d", st.jobs, want)
				}
				if tail > 0 {
					if int64(len(st.stores)) != 1+want {
						t.Fatalf("%d ImmZone stores, want the header and %d extents", len(st.stores), want)
					}
					for i, a := range st.stores[2:] {
						if a%immZoneAlign != 0 {
							t.Errorf("seam %d at ImmZone address %#x, not on a 256 B XPLine", i+1, a)
						}
					}
				}
				if servers == 1 {
					if want, ok := oneServerBusy[tail]; !ok || st.busy != want {
						t.Errorf("one server booked %d vns for the table, %d before flushes split", st.busy, want)
					}
				}
			})
		}
	}
}

// TestOneTableCopiesOnEveryIdleServer: a lone 2 MiB table at four idle flush
// servers copies as four extents side by side, so its slot frees within
// FlushFixed plus a quarter of the table's per-byte work — packing at
// FlushBytePerKB and the lines' reads and NT stores, as one server books them
// — or once its final sync ends, if that is later; a 256 KiB table is one job.
func TestOneTableCopiesOnEveryIdleServer(t *testing.T) {
	const tail = 2 << 20
	_, one := sealAndFlush(t, 1, tail)
	e, four := sealAndFlush(t, 4, tail)
	fixed := e.m.Costs.FlushFixed
	quarter := (one.busy - fixed + 3) / 4
	if bound := max(four.syncNs, fixed+quarter+quarter/100); four.freeAt-four.sealedAt > bound {
		t.Fatalf("the table freed %d vns after its seal, want within %d (FlushFixed %d + a quarter of %d, or its %d vns sync)",
			four.freeAt-four.sealedAt, bound, fixed, one.busy-fixed, four.syncNs)
	}
	t.Logf("2 MiB table: frees %d vns after its seal at four servers, %d at one; sync %d vns", four.freeAt-four.sealedAt, one.freeAt-one.sealedAt, four.syncNs)
	if four.jobs != 4 {
		t.Fatalf("%d jobs booked for a 2 MiB table at four servers, want 4", four.jobs)
	}
	if _, small := sealAndFlush(t, 4, 256<<10); small.jobs != 1 {
		t.Fatalf("%d jobs booked for a 256 KiB table, want 1", small.jobs)
	}
}
