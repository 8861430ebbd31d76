package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
)

func testMachine() *hw.Machine {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	return hw.NewMachine(cfg)
}

// smallOpts shrinks everything so tests exercise seal/flush/spill quickly.
func smallOpts() Options {
	o := DefaultOptions()
	o.PoolBytes = 1 << 20
	o.SubMemTableBytes = 128 << 10
	o.ImmZoneBytes = 1 << 20
	o.FSBytes = 64 << 20
	return o
}

func openEngine(t testing.TB, m *hw.Machine, opts Options) (*Engine, *hw.Thread) {
	t.Helper()
	th := m.NewThread(0)
	e, err := newEngine(m, opts, shardEnv{}, th)
	if err != nil {
		t.Fatal(err)
	}
	return e, th
}

func TestPackedHeaderRoundTrip(t *testing.T) {
	cases := []struct{ count, state, tail uint64 }{
		{0, stateFree, 0},
		{1, stateAllocated, 64},
		{1<<38 - 1, stateImmutable, 1<<24 - 1},
		{12345, stateAllocated, 987654},
	}
	for _, c := range cases {
		count, state, tail := unpackHdr(packHdr(c.count, c.state, c.tail))
		if count != c.count || state != c.state || tail != c.tail {
			t.Fatalf("roundtrip %v -> %d/%d/%d", c, count, state, tail)
		}
	}
}

func TestPutGet(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v := []byte(fmt.Sprintf("value-%d", i))
		if err := e.Put(th, k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := e.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(v) != fmt.Sprintf("value-%d", i) {
			t.Fatalf("Get(%s) = %q", k, v)
		}
	}
	if _, err := e.Get(th, []byte("absent")); err != kvstore.ErrNotFound {
		t.Fatalf("absent key: %v", err)
	}
}

func TestOverwriteReturnsFreshest(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	k := []byte("hot")
	for i := 0; i < 100; i++ {
		if err := e.Put(th, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	v, err := e.Get(th, k)
	if err != nil || string(v) != "v99" {
		t.Fatalf("got %q, %v", v, err)
	}
}

func TestDelete(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	e.Put(th, []byte("k"), []byte("v"))
	if err := e.Delete(th, []byte("k")); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	// Re-insert after delete.
	e.Put(th, []byte("k"), []byte("v2"))
	if v, err := e.Get(th, []byte("k")); err != nil || string(v) != "v2" {
		t.Fatalf("reinsert: %q, %v", v, err)
	}
}

func TestSealFlushAndReadFromImmZone(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	// Write far more than one 128 KiB sub-MemTable holds so seals happen.
	n := 5000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if err := e.Put(th, k, []byte(fmt.Sprintf("val-%06d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if e.stats.Flushes.Load() == 0 {
		t.Fatal("no copy-based flushes happened")
	}
	for i := 0; i < n; i += 71 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := e.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s) after flush: %v", k, err)
		}
		if string(v) != fmt.Sprintf("val-%06d", i) {
			t.Fatalf("Get(%s) = %q", k, v)
		}
	}
}

func TestSpillToL0(t *testing.T) {
	opts := smallOpts()
	opts.ImmZoneBytes = 512 << 10 // force early spills
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	n := 20000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i%8000)) // overwrites mixed in
		if err := e.Put(th, k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if e.stats.Spills.Load() == 0 {
		t.Fatal("no L0 spills")
	}
	if e.tree.NumFiles(0)+e.tree.NumFiles(1) == 0 {
		t.Fatal("nothing reached the LSM tree")
	}
	// Freshest version of every key visible: the last write of key k was at
	// op 16000+k (k < 4000) or 8000+k (k >= 4000).
	for i := 0; i < 8000; i += 113 {
		k := []byte(fmt.Sprintf("key%06d", i))
		last := 16000 + i
		if i >= 4000 {
			last = 8000 + i
		}
		want := fmt.Sprintf("v-%d", last)
		v, err := e.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
}

func TestScan(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	for i := 0; i < 3000; i++ {
		e.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	e.Delete(th, []byte("key000100"))
	// Scan across memtable + flushed data.
	var got []string
	n, err := e.Scan(th, []byte("key000095"), 10, func(k, v []byte) bool {
		got = append(got, string(k))
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("scanned %d", n)
	}
	want := []string{"key000095", "key000096", "key000097", "key000098", "key000099",
		"key000101", "key000102", "key000103", "key000104", "key000105"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan[%d] = %s, want %s (all: %v)", i, got[i], want[i], got)
		}
	}
}

func TestScanEarlyStop(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	for i := 0; i < 100; i++ {
		e.Put(th, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	count := 0
	e.Scan(th, nil, 0, func(k, v []byte) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestConcurrentWriters(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	const (
		writers = 8
		perW    = 3000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < perW; i++ {
				k := []byte(fmt.Sprintf("w%d-key%06d", w, i))
				if err := e.Put(wth, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i += 211 {
			k := []byte(fmt.Sprintf("w%d-key%06d", w, i))
			v, err := e.Get(th, k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if string(v) != fmt.Sprintf("v%d", i) {
				t.Fatalf("Get(%s) = %q", k, v)
			}
		}
	}
	if e.stats.Puts.Load() != writers*perW {
		t.Fatalf("puts = %d", e.stats.Puts.Load())
	}
}

// TestSharedSlotAppendsKeepEveryEntry: writers that append to one slot at
// once — sessions on one core, or a writer whose slot a starved core sealed
// away mid-append — each keep every acknowledged entry. The header CAS orders
// commits, but the bytes go in before it: without the slot's append lock two
// appenders wrote the same tail, tearing both entries (the lazy sync stops at
// a torn one and hides the rest of the slot) or leaving the loser's entry
// under the winner's commit.
func TestSharedSlotAppendsKeepEveryEntry(t *testing.T) {
	for _, tc := range []struct {
		name  string
		core  func(w int) int
		shape func(*Options)
	}{
		{"four writers on one core", func(int) int { return 0 }, func(*Options) {}},
		{"four cores on two slots", func(w int) int { return w }, func(o *Options) {
			o.PoolBytes, o.SubMemTableBytes = 512<<10, 224<<10
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			o := smallOpts()
			tc.shape(&o)
			e, th := openEngine(t, m, o)
			defer e.Close(th)
			const writers, per = 4, 3000
			key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-key%06d", w, i)) }
			val := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-val%06d", w, i)) }
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					wth := m.NewThread(tc.core(w))
					for i := 0; i < per; i++ {
						if err := e.Put(wth, key(w, i), val(w, i)); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			lost := 0
			for w := 0; w < writers; w++ {
				for i := 0; i < per; i++ {
					if v, err := e.Get(th, key(w, i)); err != nil || string(v) != string(val(w, i)) {
						if lost++; lost <= 3 {
							t.Errorf("acked %s reads %q, %v", key(w, i), v, err)
						}
					}
				}
			}
			if lost > 0 {
				t.Fatalf("%d of %d acked writes lost", lost, writers*per)
			}
		})
	}
}

func TestConcurrentReadersAndWriters(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	// Preload.
	for i := 0; i < 2000; i++ {
		e.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte("base"))
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < 2000; i++ {
				e.Put(wth, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("w%d", w)))
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rth := m.NewThread(8 + r)
			for i := 0; i < 2000; i++ {
				k := []byte(fmt.Sprintf("key%06d", i))
				if _, err := e.Get(rth, k); err != nil && err != kvstore.ErrNotFound {
					t.Errorf("Get(%s): %v", k, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
}

// TestLazyIndexReadSync: a Get finds a committed entry the sub-skiplist has
// not indexed through the active-key table, with no lazy sync; a Scan, which
// needs the sub-skiplist whole, still syncs it (trigger 1).
func TestLazyIndexReadSync(t *testing.T) {
	opts := smallOpts()
	opts.SyncThreshold = 1 << 20 // never background-sync: only readers may
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	for i := 0; i < 500; i++ {
		if err := e.Put(th, []byte(fmt.Sprintf("k%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if v, err := e.Get(th, []byte("k0250")); err != nil || string(v) != "v250" {
		t.Fatalf("Get(k0250) = %q, %v", v, err)
	}
	if _, err := e.Get(th, []byte("k9999")); err != kvstore.ErrNotFound {
		t.Fatalf("Get(k9999) = %v, want ErrNotFound", err)
	}
	if n := e.stats.ReadSyncs.Load(); n != 0 {
		t.Fatalf("Gets ran %d lazy syncs, want 0", n)
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 0 {
		t.Fatalf("%d Gets fell back to the slots", n)
	}
	if !needsSync(e.pool.slotFor(th.Core)) {
		t.Fatal("the slot's sub-skiplist caught up without a sync")
	}
	if _, err := e.Scan(th, []byte("k0100"), 10, func(k, v []byte) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if e.stats.ReadSyncs.Load() == 0 {
		t.Fatal("a Scan did not trigger a lazy sync")
	}
}

// TestThresholdPutSyncs: trigger 2 runs on the writer's goroutine.
func TestThresholdPutSyncs(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	putAcrossThresholds(t, e, th, 3)
}

// putAcrossThresholds Puts rounds × SyncThreshold keys into th's slot. Each
// Put that takes the slot's counter to a multiple of SyncThreshold must
// return with the slot's sub-skiplist holding every entry up to it and
// index_jobs counting the sync; the Puts in between sync nothing.
func putAcrossThresholds(t *testing.T, e *Engine, th *hw.Thread, rounds int) {
	t.Helper()
	r := obs.NewRegistry()
	e.RegisterObs(r)
	jobs0 := r.Gather().Int("index_jobs")
	thr := e.opts.SyncThreshold
	for i := 1; i <= rounds*thr; i++ {
		if err := e.Put(th, []byte(fmt.Sprintf("k%04d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
		s := e.pool.slotFor(th.Core)
		s.syncMu.Lock()
		listed := s.listCount
		s.syncMu.Unlock()
		syncs := i / thr
		if want := uint64(syncs * thr); listed != want {
			t.Fatalf("after Put %d the sub-skiplist holds %d entries, want %d", i, listed, want)
		}
		if jobs := r.Gather().Int("index_jobs") - jobs0; jobs != int64(syncs) {
			t.Fatalf("after Put %d index_jobs rose by %d, want %d", i, jobs, syncs)
		}
	}
}

// TestSyncsOvertakeACompaction holds a flush at the registration of its
// table, the step that stands for the paper's sub-skiplist compaction (its
// keys join the memory component's one index there), while one writer
// crosses SyncThreshold four times: each crossing Put still returns with its
// slot synced. A flush must not leave the active slot's sub-skiplist behind
// its writer, or whether the next Get finds it current or pays for the
// catch-up itself depends on host scheduling alone.
func TestSyncsOvertakeACompaction(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	if err := e.Put(th, []byte("sealed"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	s := e.pool.slotFor(th.Core)
	e.mem.mu.Lock() // the flush's registration waits here
	defer e.mem.mu.Unlock()
	if e.pool.sealForCore(th, th.Core) != s {
		t.Fatal("the writer's slot did not seal")
	}
	e.queueSealed(th.Clock.Now(), s)
	for e.flushes.Running() == 0 {
		time.Sleep(time.Millisecond)
	}
	putAcrossThresholds(t, e, th, 4)
	if e.flushes.Running() == 0 || e.stats.Flushes.Load() != 0 {
		t.Fatal("the held flush finished")
	}
}

func TestPCSMModeEagerIndex(t *testing.T) {
	opts := smallOpts()
	opts.LazyIndex = false
	opts.SkiplistCompaction = false
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	if e.Name() != "PCSM" {
		t.Fatalf("Name() = %s", e.Name())
	}
	for i := 0; i < 2000; i++ {
		e.Put(th, []byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	for i := 0; i < 2000; i += 97 {
		v, err := e.Get(th, []byte(fmt.Sprintf("k%05d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("PCSM Get: %q, %v", v, err)
		}
	}
	if e.stats.ReadSyncs.Load() != 0 {
		t.Fatal("PCSM should never need read syncs")
	}
}

func TestNameVariants(t *testing.T) {
	opts := smallOpts()
	opts.LazyIndex = true
	opts.SkiplistCompaction = false
	e, th := openEngine(t, testMachine(), opts)
	if e.Name() != "PCSM+LIU" {
		t.Fatalf("Name() = %s", e.Name())
	}
	e.Close(th)
	e2, th2 := openEngine(t, testMachine(), smallOpts())
	if e2.Name() != "CacheKV" {
		t.Fatalf("Name() = %s", e2.Name())
	}
	e2.Close(th2)
}

func TestElasticitySplitsUnderPressure(t *testing.T) {
	opts := smallOpts()
	opts.PoolBytes = 512 << 10
	opts.SubMemTableBytes = 224 << 10 // two slots
	m := testMachine()
	e, th := openEngine(t, m, opts)
	defer e.Close(th)
	before := e.pool.numSlots()
	// Hammer writes from many cores so slots run out and misses accumulate.
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < 4000; i++ {
				e.Put(wth, []byte(fmt.Sprintf("w%d-%06d", w, i)), make([]byte, 100))
			}
		}(w)
	}
	wg.Wait()
	if e.pool.numSlots() <= before {
		t.Fatalf("elasticity never split: %d -> %d slots", before, e.pool.numSlots())
	}
}

func TestCloseIdempotent(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	if err := e.Close(th); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(th); err != nil {
		t.Fatal(err)
	}
	if err := e.Put(th, []byte("k"), []byte("v")); err == nil {
		t.Fatal("Put after Close should fail")
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	before := th.Clock.Now()
	for i := 0; i < 100; i++ {
		e.Put(th, []byte(fmt.Sprintf("k%03d", i)), []byte("v"))
	}
	if th.Clock.Now() <= before {
		t.Fatal("writes charged no virtual time")
	}
	perOp := (th.Clock.Now() - before) / 100
	if perOp < 50 || perOp > 100000 {
		t.Fatalf("implausible per-op virtual cost: %d ns", perOp)
	}
}

func TestWriteHitRatioHighForCacheKV(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	before := m.PMem.Snapshot()
	for i := 0; i < 20000; i++ {
		e.Put(th, []byte(fmt.Sprintf("key%08d", i)), make([]byte, 64))
	}
	e.FlushAll(th)
	var fth = m.NewThread(0)
	m.PMem.Flush(fth.Clock)
	delta := m.PMem.Snapshot().Sub(before)
	// Copy-based flush should keep the XPBuffer combining nearly perfectly.
	if hr := delta.WriteHitRatio(); hr < 0.70 {
		t.Fatalf("CacheKV write hit ratio = %.3f, want >= 0.70", hr)
	}
	if wa := delta.WriteAmplification(); wa > 1.6 {
		t.Fatalf("CacheKV write amplification = %.3f", wa)
	}
}

func TestPoolPinnedLinesSurviveOtherTraffic(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	e.Put(th, []byte("pinned-key"), []byte("pinned-val"))
	// Blast unrelated traffic through the default partition.
	scratch := m.Alloc("scratch", 64<<20, 0)
	for i := uint64(0); i < 1<<16; i++ {
		m.Cache.Write(th.Clock, scratch.Addr+i*64, []byte{1}, cache.DefaultPartition)
	}
	if v, err := e.Get(th, []byte("pinned-key")); err != nil || string(v) != "pinned-val" {
		t.Fatalf("pinned data lost: %q, %v", v, err)
	}
}

// TestElasticityRestoresConfiguredSize: eight writers on a pool of two slots
// miss, and the misses split the slots; then one calm writer finds a slot
// free at every turn, and the hits merge the halves back into the slots the
// pool was carved into — never past them. The data stays intact through
// every geometry change.
func TestElasticityRestoresConfiguredSize(t *testing.T) {
	opts := smallOpts()
	opts.PoolBytes = 512 << 10
	opts.SubMemTableBytes = 224 << 10 // two slots
	opts.FSBytes = 256 << 20
	m := testMachine()
	e, th := openEngine(t, m, opts)
	defer e.Close(th)
	checkSizes := func(when string) {
		t.Helper()
		for _, s := range e.pool.slotList() {
			if sz := s.size.Load(); sz > opts.SubMemTableBytes {
				t.Fatalf("%s: slot %d holds %d bytes, past the configured %d", when, s.idx, sz, opts.SubMemTableBytes)
			}
		}
	}
	key := func(w, i int) []byte { return []byte(fmt.Sprintf("w%d-%06d", w, i)) }
	var wg sync.WaitGroup
	ends := make([]int64, 8)
	for w := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := range 4000 {
				if err := e.Put(wth, key(w, i), make([]byte, 100)); err != nil {
					t.Error(err)
					return
				}
			}
			ends[w] = wth.Clock.Now()
		}()
	}
	wg.Wait()
	checkSizes("after the pressure")
	if e.pool.splits.Load() == 0 || e.pool.numSlots() <= 2 {
		t.Fatalf("eight writers on two slots never split: %d splits, %d slots", e.pool.splits.Load(), e.pool.numSlots())
	}
	// A calm writer, once FlushAll has taken back the slots the others left
	// allocated: think time between puts lets every flush end before its slot
	// comes round again.
	calm := m.NewThread(0)
	calm.Clock.AdvanceTo(slices.Max(ends))
	if err := e.FlushAll(calm); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 16 && e.pool.numSlots() > 2; round++ {
		for i := range 4000 {
			calm.Clock.Advance(2_000)
			if err := e.Put(calm, key(8+round, i), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		checkSizes(fmt.Sprintf("calm round %d", round))
	}
	if n := e.pool.numSlots(); n != 2 || e.pool.merges.Load() == 0 {
		t.Fatalf("the calm writer left %d slots after %d merges, want the 2 configured", n, e.pool.merges.Load())
	}
	for w := range 9 {
		for i := 0; i < 4000; i += 397 { // the writers' keys and the first calm round's
			if _, err := e.Get(th, key(w, i)); err != nil {
				t.Fatalf("lost %s: %v", key(w, i), err)
			}
		}
	}
}

// TestGetNeverMissesAcrossFlushHandOver is the regression test for the flush
// hand-over order: the flusher must register a sealed table in mem.imms
// before it clears the slot's list, or a Get racing the hand-over finds the
// key in neither place. The writer keeps sealing 128 KiB slots, and while a
// flush is in flight it re-reads the keys of the slot being moved as fast as
// it can, so some Get lands inside every hand-over. Run under -race in CI.
func TestGetNeverMissesAcrossFlushHandOver(t *testing.T) {
	opts := smallOpts()
	opts.FSBytes = 512 << 20 // every L0 table reserves a full-size extent
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%08d", i)) }
	value := make([]byte, 200)
	const perSlot = 512 // a 128 KiB slot holds a little more than this
	gets := 0
	for i := 0; i < 60_000 || gets < 50_000; i++ {
		if err := e.Put(th, key(i), value); err != nil {
			t.Fatal(err)
		}
		for back := i; back >= 0; back-- {
			if _, err := e.Get(th, key(back)); err != nil {
				t.Fatalf("Get of key %d, acknowledged %d Puts ago: %v (flushes so far: %d)",
					back, i-back, err, e.stats.Flushes.Load())
			}
			gets++
			if back == i-perSlot {
				back = i + 1 // sweep the same keys again
			}
			if e.pendingFlushes.Load() == 0 {
				break
			}
		}
	}
	if n := e.stats.Flushes.Load(); n < 50 {
		t.Fatalf("only %d flushes: the hand-over was not exercised", n)
	}
}

// TestGetReadsItsSnapshotAcrossSpillAndCompaction: sessions Get keys a writer
// keeps overwriting while its writes seal, flush, merge into the global
// skiplist, spill to L0 and compact L0 into L1 under them. Every Get must
// return a version at least as new as the one acknowledged before it began.
// A merge, or a spill and the compaction it triggers, can take in a version
// newer than a Get's snapshot while it reads and drop the one that snapshot
// reads: the key then reads at an older version, or absent.
func TestGetReadsItsSnapshotAcrossSpillAndCompaction(t *testing.T) {
	opts := smallOpts()
	opts.ImmZoneBytes = 512 << 10
	opts.LSM = lsm.Options{L0CompactionTrigger: 2, TableFileSize: 64 << 10}
	opts.SkiplistCompaction = false
	m := testMachine()
	e, th := openEngine(t, m, opts)
	defer e.Close(th)
	const keys, rounds, readers = 64, 1500, 3
	key := func(k int) []byte { return []byte(fmt.Sprintf("key%04d", k)) }
	var acked [keys]atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rth := m.NewThread(1 + r)
			rng := rand.New(rand.NewSource(int64(r)))
			for {
				select {
				case <-done:
					return
				default:
				}
				k := rng.Intn(keys)
				lo := acked[k].Load()
				if lo == 0 {
					continue
				}
				v, err := e.Get(rth, key(k))
				var ver int64
				if err == nil {
					_, err = fmt.Sscanf(string(v[:9]), "v%08d", &ver)
				}
				if err != nil || ver < lo {
					t.Errorf("Get(%s) = version %d, %v; version %d was acknowledged before it began", key(k), ver, err, lo)
					return
				}
			}
		}()
	}
	pad := make([]byte, 180)
	for v := int64(1); v <= rounds && !t.Failed(); v++ {
		for k := range keys {
			if err := e.Put(th, key(k), append([]byte(fmt.Sprintf("v%08d", v)), pad...)); err != nil {
				t.Fatal(err)
			}
			acked[k].Store(v)
		}
	}
	close(done)
	wg.Wait()
	if jobs, _ := e.compactServer.Stats(); e.stats.Spills.Load() < 4 || jobs == 0 {
		t.Fatalf("%d spills and %d compactions: the window was not exercised", e.stats.Spills.Load(), jobs)
	}
}
