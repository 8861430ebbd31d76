package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"cachekv/internal/engines"
	"cachekv/internal/obs"
)

// runObsYCSBC runs a small YCSB-C and returns the result plus the runner and
// trace (nil unless withObs). Single worker thread: with one foreground
// thread the virtual schedule is fully deterministic (multi-thread runs
// resolve lock contention in goroutine-arrival order, which varies run to
// run), so two calls with the same arguments replay identically and the
// zero-overhead comparison below can demand exact equality.
func runObsYCSBC(t *testing.T, withObs bool) (Result, *Runner, *obs.Trace) {
	return runObsYCSB(t, YCSBC, 1, 0, withObs, 0)
}

// runObsYCSB loads, settles and then measures spec with the given worker
// threads against a CacheKV of the given shard count (0 = the single engine).
// slowopNs > 0 arms slow-op capture at that static threshold for the measured
// phase, and requires withObs.
func runObsYCSB(t *testing.T, spec YCSBSpec, threads, shards int, withObs bool, slowopNs int64) (Result, *Runner, *obs.Trace) {
	t.Helper()
	const (
		records   = 2000
		ops       = 4000
		valueSize = 64
	)
	var cfg EngineConfig
	cfg.DataBytes = uint64(records*2) * uint64(valueSize+40)
	cfg.Shards = shards
	var tr *obs.Trace
	if withObs {
		cfg.Obs = true
		tr = obs.NewTrace(obs.DefaultTraceCap)
		cfg.Trace = tr
	}
	m := cfg.NewMachine()
	th := m.NewThread(0)
	db, err := cfg.Open(engines.CacheKV, m, th)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(m, db)
	if withObs {
		r.Col = obs.NewCollector()
		if slowopNs > 0 {
			r.Col.EnableSlowOps(obs.SlowOpPolicy{StaticNs: slowopNs}, tr)
		}
	} else if slowopNs > 0 {
		t.Fatal("slow-op capture requires withObs")
	}
	// Load and measure as separate phases with a settle between them: the load
	// leaves background work (spill plus its towed compaction) in flight, and
	// letting the measured reads race it would make block-cache and version
	// state — and hence virtual read cost — depend on real-time scheduling.
	col := r.Col
	r.Col = nil
	if _, err := r.Run(YCSBLoad.workload(records, records, threads, valueSize)); err != nil {
		t.Fatal(err)
	}
	if err := r.Settle(th); err != nil {
		t.Fatal(err)
	}
	r.Col = col
	res, err := r.Run(spec.workload(records, ops, threads, valueSize))
	if err != nil {
		t.Fatal(err)
	}
	if withObs {
		// Drain the XPBuffer so per-layer media totals are complete before the
		// report snapshot.
		if err := r.Settle(th); err != nil {
			t.Fatal(err)
		}
	}
	t.Cleanup(func() { db.Close(th) })
	return res, r, tr
}

// TestYCSBCAttributionInvariants is the attribution acceptance check: a run
// with attribution on must produce a report where (1) every invariant Verify
// knows about holds, (2) summed foreground per-layer virtual ns equals the
// threads' busy time within 1%, and (3) summed per-layer media write bytes
// equal the PMem device's counter — on the single engine and on the sharded
// router, with writes reaching every shard.
func TestYCSBCAttributionInvariants(t *testing.T) {
	for _, tc := range []struct {
		name            string
		spec            YCSBSpec
		threads, shards int
	}{
		{"single-YCSB-C", YCSBC, 1, 0},
		{"4-shards-YCSB-A", YCSBA, 4, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, r, tr := runObsYCSB(t, tc.spec, tc.threads, tc.shards, true, 0)
			run := BuildRunReport(res, r, tr)

			if bad := run.Verify(); len(bad) != 0 {
				t.Fatalf("report invariants violated: %v", bad)
			}
			if len(run.OpStats) == 0 || len(run.Layers) == 0 {
				t.Fatalf("report missing attribution: %d op stats, %d layers", len(run.OpStats), len(run.Layers))
			}
			for k := 0; k < tc.shards; k++ {
				if name := fmt.Sprintf("shard%d_engine_puts", k); run.Metrics.Int(name) <= 0 {
					t.Fatalf("%s = %d: the run wrote nothing to shard %d", name, run.Metrics.Int(name), k)
				}
			}

			// (2) Foreground ops (everything YCSB issues is foreground) account
			// for the workers' entire busy time.
			var fgNs int64
			for _, st := range run.OpStats {
				var sum int64
				for _, l := range st.Layers {
					sum += l.Ns
				}
				if d := sum - st.TotalNs; d > st.TotalNs/100 || -d > st.TotalNs/100 {
					t.Fatalf("op %s: layer sum %d vs total %d exceeds 1%%", st.Op, sum, st.TotalNs)
				}
				fgNs += st.TotalNs
			}
			if res.ThreadVNs <= 0 {
				t.Fatalf("ThreadVNs = %d", res.ThreadVNs)
			}
			if d := fgNs - res.ThreadVNs; d > res.ThreadVNs/100 || -d > res.ThreadVNs/100 {
				t.Fatalf("foreground op ns %d vs thread busy ns %d exceeds 1%%", fgNs, res.ThreadVNs)
			}

			// (3) The layer table and the device counters are two views of the
			// same media traffic.
			var layerMedia int64
			for _, l := range run.Layers {
				layerMedia += l.MediaWriteB
			}
			devMedia := r.M.PMem.Counters.MediaWriteB.Load()
			if layerMedia != devMedia {
				t.Fatalf("layer media write bytes %d != device %d", layerMedia, devMedia)
			}
			if devMedia == 0 {
				t.Fatal("no media writes recorded — workload too small to exercise the device")
			}
		})
	}
}

// TestObsZeroVirtualOverhead pins the attribution design's core property: the
// simulation is deterministic and spans only read clocks, so enabling
// observability must not change virtual time at all — the same schedule, the
// same elapsed ns, the same throughput.
func TestObsZeroVirtualOverhead(t *testing.T) {
	on, _, _ := runObsYCSBC(t, true)
	off, _, _ := runObsYCSBC(t, false)
	if on.ElapsedNs != off.ElapsedNs {
		t.Fatalf("obs changed virtual elapsed time: on=%d off=%d", on.ElapsedNs, off.ElapsedNs)
	}
	if on.KopsPerSec != off.KopsPerSec {
		t.Fatalf("obs changed throughput: on=%v off=%v", on.KopsPerSec, off.KopsPerSec)
	}
	if on.Ops != off.Ops {
		t.Fatalf("op counts differ: on=%d off=%d", on.Ops, off.Ops)
	}
}

// TestSlowOpCaptureZeroVirtualOverhead sharpens the zero-overhead property for
// the slow-op path: a 1 ns static threshold forces a capture attempt on every
// measured op, and even then the virtual schedule must be bit-identical to a
// capture-off run — dossier recording reads clocks, it never advances them.
func TestSlowOpCaptureZeroVirtualOverhead(t *testing.T) {
	armed, r, _ := runObsYCSB(t, YCSBC, 1, 0, true, 1)
	plain, _, _ := runObsYCSBC(t, true)
	if armed.ElapsedNs != plain.ElapsedNs {
		t.Fatalf("slow-op capture changed virtual elapsed time: armed=%d plain=%d",
			armed.ElapsedNs, plain.ElapsedNs)
	}
	if armed.KopsPerSec != plain.KopsPerSec {
		t.Fatalf("slow-op capture changed throughput: armed=%v plain=%v",
			armed.KopsPerSec, plain.KopsPerSec)
	}
	if armed.Ops != plain.Ops {
		t.Fatalf("op counts differ: armed=%d plain=%d", armed.Ops, plain.Ops)
	}
	// The check is only meaningful if captures actually fired.
	if len(r.Col.SlowOps()) == 0 {
		t.Fatal("1 ns threshold captured nothing — overhead check is vacuous")
	}
}

// TestSlowOpDossierDeterminism runs the same capture-armed single-thread
// workload twice and demands byte-identical dossier JSONL: sequence numbers,
// timestamps, layer splits, and event windows must all replay exactly.
func TestSlowOpDossierDeterminism(t *testing.T) {
	var bufs [2]bytes.Buffer
	for i := range bufs {
		_, r, tr := runObsYCSB(t, YCSBC, 1, 0, true, 1)
		if tr.Dropped() != 0 {
			// Ring-wrap drop order follows host-side emission arrival, which is
			// not deterministic; this workload must fit the default ring.
			t.Fatalf("trace ring wrapped (%d dropped) — workload outgrew the ring", tr.Dropped())
		}
		ds := r.Col.SlowOps()
		if len(ds) == 0 {
			t.Fatal("no dossiers captured")
		}
		if bad := obs.VerifySlowOps(ds); len(bad) != 0 {
			t.Fatalf("run %d dossiers invalid: %v", i, bad)
		}
		enc := json.NewEncoder(&bufs[i])
		for _, d := range ds {
			if err := enc.Encode(d); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(bufs[0].Bytes(), bufs[1].Bytes()) {
		a := strings.Split(bufs[0].String(), "\n")
		b := strings.Split(bufs[1].String(), "\n")
		for i := 0; i < len(a) && i < len(b); i++ {
			if a[i] != b[i] {
				t.Fatalf("dossier JSONL diverged at line %d:\n  run0: %s\n  run1: %s", i, a[i], b[i])
			}
		}
		t.Fatalf("dossier JSONL line counts diverged: %d vs %d", len(a), len(b))
	}
}

// TestTraceCapturesLifecycle checks the engine actually feeds the event ring
// during a write-heavy run (flushes must have happened at this data size).
func TestTraceCapturesLifecycle(t *testing.T) {
	_, _, tr := runObsYCSBC(t, true)
	if tr.Seq() == 0 {
		t.Fatal("no lifecycle events emitted")
	}
	types := map[string]bool{}
	for _, ev := range tr.Events() {
		types[ev.Type] = true
	}
	if !types["flush_start"] && !types["memtable_seal"] && !types["flush_end"] {
		t.Fatalf("no flush lifecycle events in trace; saw %v", types)
	}
}
