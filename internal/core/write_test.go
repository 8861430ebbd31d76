package core

import (
	"fmt"
	"runtime"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/pmem"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
)

// TestShardedBatchDeleteRangeReachesEveryShard: a range tombstone inside a
// batch must land on every shard atomically with the batch's point ops, not
// only on ShardOf(start) — and stay that way across a crash.
func TestShardedBatchDeleteRangeReachesEveryShard(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }
	for i := 0; i < 100; i++ {
		if err := sh.Put(th, key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var b Batch
	b.Put([]byte("marker"), []byte("m"))
	b.DeleteRange(key(25), key(75))
	if err := sh.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	check := func(sh *Sharded, th *hw.Thread, when string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			_, err := sh.Get(th, key(i))
			if covered := i >= 25 && i < 75; covered && err != kvstore.ErrNotFound {
				t.Fatalf("%s: %s inside the range survived on shard %d: %v", when, key(i), sh.ShardOf(key(i)), err)
			} else if !covered && err != nil {
				t.Fatalf("%s: %s outside the range lost: %v", when, key(i), err)
			}
		}
		if v, err := sh.Get(th, []byte("marker")); err != nil || string(v) != "m" {
			t.Fatalf("%s: marker = %q, %v", when, v, err)
		}
	}
	check(sh, th, "live")
	sh.Halt()
	sh2, th2 := crashAndReopenSharded(t, m, so)
	defer sh2.Close(th2)
	check(sh2, th2, "recovered")
}

// TestOneOpBatchCostsWhatPutCosts: Put(k,v) and the one-op batch {k,v} are the
// same append and the same CAS, so under every index mode they must advance
// the virtual clock, the PMem device counters and the slot header identically.
func TestOneOpBatchCostsWhatPutCosts(t *testing.T) {
	modes := []struct {
		name             string
		lazy, compaction bool
	}{{"CacheKV", true, true}, {"PCSM+LIU", true, false}, {"PCSM", false, false}}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			run := func(batched bool) (int64, pmem.CountersSnapshot, uint64) {
				m := testMachine()
				o := smallOpts()
				o.LazyIndex, o.SkiplistCompaction = mode.lazy, mode.compaction
				e, th := openEngine(t, m, o)
				defer e.Close(th)
				if e.Name() != mode.name {
					t.Fatalf("opened %s, want %s", e.Name(), mode.name)
				}
				// Fewer ops than SyncThreshold: no background index sync races
				// the device-counter snapshot.
				for i := 0; i < 40; i++ {
					k, v := []byte(fmt.Sprintf("key%04d", i*7919%1000)), []byte(fmt.Sprintf("value-%d", i))
					var err error
					if batched {
						err = e.Write(th, putBatch(k, v), 0)
					} else {
						err = e.Put(th, k, v)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				return th.Clock.Now(), m.PMem.Snapshot(), e.pool.slotFor(th.Core).hdr.Load()
			}
			putClk, putDev, putHdr := run(false)
			batClk, batDev, batHdr := run(true)
			if putClk != batClk {
				t.Errorf("virtual clock: Put %d vns, one-op batch %d vns", putClk, batClk)
			}
			if putDev != batDev {
				t.Errorf("device counters differ:\n Put   %+v\n batch %+v", putDev, batDev)
			}
			if putHdr != batHdr {
				t.Errorf("slot header: Put %#x, one-op batch %#x", putHdr, batHdr)
			}
		})
	}
}

// TestStatsCountByKind: each op kind is counted once, where it commits —
// whether it arrived alone or inside a batch.
func TestStatsCountByKind(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	if err := e.Put(th, []byte("a"), []byte("1")); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(th, []byte("a")); err != nil {
		t.Fatal(err)
	}
	var b Batch
	b.Put([]byte("b"), []byte("2"))
	b.Delete([]byte("b"))
	b.Delete([]byte("c"))
	b.DeleteRange([]byte("x"), []byte("y"))
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	r := obs.NewRegistry()
	e.RegisterObs(r)
	snap := r.Gather()
	for name, want := range map[string]int64{"engine_puts": 2, "engine_deletes": 3, "engine_range_deletes": 1} {
		if got := snap.Int(name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
}

// TestCompactionWorkersZeroIsOne: the scheduler is always on, so leaving
// CompactionWorkers at 0 is the one-worker configuration — same virtual clock,
// same registry — on a load that spills and compacts.
func TestCompactionWorkersZeroIsOne(t *testing.T) {
	run := func(workers int) (int64, *obs.Snapshot) {
		m := testMachine()
		o := smallOpts()
		o.CompactionWorkers = workers
		o.LSM = lsm.Options{
			L0CompactionTrigger: 2,
			BaseLevelBytes:      64 << 10,
			LevelMultiplier:     4,
			MaxLevels:           5,
			TableFileSize:       16 << 10,
		}
		e, th := openEngine(t, m, o)
		defer e.Close(th)
		for i := 0; i < 3000; i++ {
			if err := e.Put(th, []byte(fmt.Sprintf("key%06d", i*7919%3000)), []byte(fmt.Sprintf("v-%d", i))); err != nil {
				t.Fatal(err)
			}
			if i%500 == 499 {
				// Settle the background chain so the virtual schedule does not
				// depend on how the host interleaves it with the writer.
				if err := e.FlushAll(th); err != nil {
					t.Fatal(err)
				}
			}
		}
		if st := e.tree.SchedulerStats(); st.Workers != 1 || st.JobsRun == 0 {
			t.Fatalf("CompactionWorkers=%d: scheduler has %d workers and ran %d jobs", workers, st.Workers, st.JobsRun)
		}
		r := obs.NewRegistry()
		obs.RegisterMachine(r, m)
		e.RegisterObs(r)
		return th.Clock.Now(), r.Gather()
	}
	if w := (Options{CompactionWorkers: -3}).withDefaults().CompactionWorkers; w != 1 {
		t.Fatalf("CompactionWorkers=-3 defaults to %d workers, want 1", w)
	}
	clk0, snap0 := run(0)
	clk1, snap1 := run(1)
	if clk0 != clk1 {
		t.Errorf("virtual clock: %d vns at CompactionWorkers=0, %d at 1", clk0, clk1)
	}
	if len(snap0.Metrics) != len(snap1.Metrics) {
		t.Fatalf("registry has %d metrics at 0, %d at 1", len(snap0.Metrics), len(snap1.Metrics))
	}
	for i, m0 := range snap0.Metrics {
		if m0.Name == "engine_compactions" {
			continue // sub-skiplist compaction signals coalesce on the host scheduler
		}
		if m1 := snap1.Metrics[i]; m0 != m1 {
			t.Errorf("registry differs: %+v at 0, %+v at 1", m0, m1)
		}
	}
}

// TestWriteAllocs pins the host cost of the one write path: a Put allocates
// nothing (it was 7 objects when Put had a path of its own, then 1, the encoded
// entry, until that moved into the calling thread's scratch), and neither does
// a batch, however many ops it carries.
func TestWriteAllocs(t *testing.T) {
	o := smallOpts()
	o.SyncThreshold = 1 << 30 // keep the index thread (and its allocations) out of the count
	o.Elastic = false
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)
	k, v := []byte("key-0123456789"), make([]byte, 64)
	// The simulated LLC allocates a line on first touch. Touch most of slot 0
	// once and hand it back, so the measured writes land on resident lines.
	for i := 0; i < 1200; i++ {
		if err := e.Put(th, k, v); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if err := e.Put(th, k, v); err != nil { // re-acquire the slot outside the measurement
		t.Fatal(err)
	}
	if put := testing.AllocsPerRun(100, func() { _ = e.Put(th, k, v) }); put != 0 {
		t.Errorf("Engine.Put allocates %.0f objects per call, want 0", put)
	}
	for _, n := range []int{1, 4} {
		var b Batch
		for i := 0; i < n; i++ {
			b.Put(k, v)
		}
		if got := testing.AllocsPerRun(100, func() { _ = e.Write(th, &b, 0) }); got != 0 {
			t.Errorf("Write allocates %.0f objects for a %d-op batch, want 0", got, n)
		}
	}
}

// TestEverySealIsTraced: a slot reaches the copy-based flush by three routes —
// it filled up, Flush sealed it, or pool starvation force-rotated it — and
// each leaves exactly one memtable_seal answered by one flush_end, the balance
// the ledger's quiet set-ups wait on. The empty slot Flush frees directly
// leaves neither.
func TestEverySealIsTraced(t *testing.T) {
	count := func(tr *obs.Trace) (seals, flushes int) {
		for _, ev := range tr.Events() {
			switch ev.Type {
			case "memtable_seal":
				seals++
			case "flush_end":
				flushes++
			}
		}
		return seals, flushes
	}
	put := func(e *Engine, th *hw.Thread) {
		t.Helper()
		if err := e.Put(th, []byte(fmt.Sprintf("core%d", th.Core)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("flush", func(t *testing.T) {
		m := testMachine()
		o := smallOpts()
		o.Trace = obs.NewTrace(0)
		e, th := openEngine(t, m, o)
		defer e.Close(th)
		put(e, m.NewThread(0))
		put(e, m.NewThread(1))
		if _, err := e.pool.acquire(m.NewThread(2), 2, 1, 0); err != nil { // allocated, never written
			t.Fatal(err)
		}
		if err := e.FlushAll(th); err != nil {
			t.Fatal(err)
		}
		if seals, flushes := count(o.Trace); seals != 2 || flushes != 2 {
			t.Fatalf("Flush over two written slots and an empty one: %d memtable_seal, %d flush_end, want 2 and 2", seals, flushes)
		}
	})

	t.Run("forced rotation", func(t *testing.T) {
		m := testMachine()
		o := smallOpts()
		o.PoolBytes = 512 << 10
		o.SubMemTableBytes = 224 << 10 // two slots
		o.Elastic = false
		o.Trace = obs.NewTrace(0)
		e, th := openEngine(t, m, o)
		defer e.Close(th)
		// Both slots park on cores that go idle; a third core's write can only
		// proceed by force-sealing one of them.
		put(e, m.NewThread(0))
		put(e, m.NewThread(1))
		put(e, m.NewThread(2))
		for e.pendingFlushes.Load() > 0 {
			runtime.Gosched()
		}
		if seals, flushes := count(o.Trace); seals != 1 || flushes != 1 {
			t.Fatalf("forced rotation: %d memtable_seal, %d flush_end, want 1 and 1", seals, flushes)
		}
	})
}
