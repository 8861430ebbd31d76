package cachekv

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/core"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
)

// smallGeometry shrinks the pool, the ImmZone, L1 and the SSTable target so
// that a few thousand puts fill slots, spill and schedule compactions.
func smallGeometry(o *core.Options) {
	o.PoolBytes, o.ImmZoneBytes = 2<<20, 4<<20
	o.LSM.BaseLevelBytes, o.LSM.TableFileSize = 1<<20, 256<<10
}

func TestOpenDefaultEngine(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.EngineName() != "CacheKV" {
		t.Fatalf("EngineName = %s", db.EngineName())
	}
	s := db.Session(0)
	if err := s.Put([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, err := s.Get([]byte("hello"))
	if err != nil || string(v) != "world" {
		t.Fatalf("Get = %q, %v", v, err)
	}
	if _, err := s.Get([]byte("absent")); err != ErrNotFound {
		t.Fatalf("absent = %v", err)
	}
	if s.VirtualNanos() == 0 {
		t.Fatal("operations charged no virtual time")
	}
}

func TestAllEnginesOpen(t *testing.T) {
	engines := []Engine{
		EngineCacheKV, EnginePCSM, EnginePCSMLIU,
		EngineNoveLSM, EngineNoveLSMNoFlush, EngineNoveLSMCache,
		EngineSLMDB, EngineSLMDBNoFlush, EngineSLMDBCache,
	}
	for _, eng := range engines {
		db, err := Open(Options{Engine: eng, PMemMB: 1024})
		if err != nil {
			t.Fatalf("%s: %v", eng, err)
		}
		s := db.Session(0)
		for i := 0; i < 500; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
				t.Fatalf("%s Put: %v", eng, err)
			}
		}
		if _, err := s.Get([]byte("k00250")); err != nil {
			t.Fatalf("%s Get: %v", eng, err)
		}
		db.Close()
	}
}

// TestErrClosed: use after Close is one testable error on every engine and on
// both CacheKV shapes, from a write and from SimulateCrash alike.
func TestErrClosed(t *testing.T) {
	configs := []Options{{Shards: 2}}
	for _, eng := range allEngines {
		configs = append(configs, Options{Engine: eng})
	}
	for _, o := range configs {
		o.PMemMB = 1024
		db, err := Open(o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		s := db.Session(0)
		if err := s.Put([]byte("k"), []byte("v")); err != nil {
			t.Fatalf("%s: %v", db.EngineName(), err)
		}
		if err := db.Close(); err != nil {
			t.Fatalf("%s Close: %v", db.EngineName(), err)
		}
		if err := s.Put([]byte("k"), []byte("v")); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: Put after Close: %v, want ErrClosed", db.EngineName(), err)
		}
		if _, err := db.SimulateCrash(); !errors.Is(err, ErrClosed) {
			t.Errorf("%s: SimulateCrash after Close: %v, want ErrClosed", db.EngineName(), err)
		}
	}
}

func TestUnknownEngine(t *testing.T) {
	if _, err := Open(Options{Engine: "bogus"}); err == nil {
		t.Fatal("bogus engine accepted")
	}
}

func TestScanAndDelete(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := 0; i < 100; i++ {
		s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	s.Delete([]byte("k050"))
	var keys []string
	n, err := s.Scan([]byte("k048"), 4, func(k, v []byte) bool {
		keys = append(keys, string(k))
		return true
	})
	if err != nil || n != 4 {
		t.Fatalf("scan = %d, %v", n, err)
	}
	want := []string{"k048", "k049", "k051", "k052"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("scan keys = %v", keys)
		}
	}
}

func TestConcurrentSessions(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := db.Session(w)
			for i := 0; i < 2000; i++ {
				if err := s.Put([]byte(fmt.Sprintf("w%d-%05d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	s := db.Session(0)
	for w := 0; w < 8; w++ {
		if _, err := s.Get([]byte(fmt.Sprintf("w%d-01000", w))); err != nil {
			t.Fatalf("lost w%d: %v", w, err)
		}
	}
}

func TestSimulateCrashEADR(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session(0)
	for i := 0; i < 1000; i++ {
		s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session(0)
	for i := 0; i < 1000; i += 37 {
		v, err := s2.Get([]byte(fmt.Sprintf("k%05d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered k%05d = %q, %v", i, v, err)
		}
	}
	// Old handle unusable.
	if _, err := db.SimulateCrash(); err == nil {
		t.Fatal("double crash on stale handle should fail")
	}
}

// TestTunedGeometrySurvivesCrash: SimulateCrash reopens with the Options the
// store was opened with, the tune hook included, so a store tuned to a small
// pool without memory-component filters recovers that pool and still runs
// without filters. An untuned store beside it shows both settings matter.
func TestTunedGeometrySurvivesCrash(t *testing.T) {
	gather := func(db *DB) *obs.Snapshot { return db.Registry().Gather() }
	plain, err := Open(Options{PMemMB: 512, SubMemTableKB: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	db, err := Open(Options{PMemMB: 512, SubMemTableKB: 256, tune: func(o *core.Options) {
		o.PoolBytes, o.FilterBitsPerKey = 2<<20, -1
	}})
	if err != nil {
		t.Fatal(err)
	}
	slots := gather(db).Int("engine_pool_slots")
	if def := gather(plain).Int("engine_pool_slots"); slots == def {
		t.Fatalf("the tuned pool has the default pool's %d slots", def)
	}
	s := db.Session(0)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%05d", i)), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	db, err = db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if got := gather(db).Int("engine_pool_slots"); got != slots {
		t.Fatalf("recovered pool has %d slots, want the tuned %d", got, slots)
	}
	for _, d := range []*DB{plain, db} {
		s := d.Session(0)
		for i := 100; i < 200; i++ {
			k := []byte(fmt.Sprintf("k%05d", i))
			if err := s.Put(k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Get(k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p := gather(plain).Int(obs.MFilterProbes); p == 0 {
		t.Fatal("the untuned store probed no filter")
	}
	if p := gather(db).Int(obs.MFilterProbes); p != 0 {
		t.Fatalf("the recovered store probed its filters %d times; tuned, it has none", p)
	}
}

// TestNegativeSessionCore: a negative core wraps into [0, Cores) like any
// other, so a session's first write never indexes the pool's per-core slot
// table below zero.
func TestNegativeSessionCore(t *testing.T) {
	db, err := Open(Options{PMemMB: 512, Cores: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, c := range []struct{ core, want int }{{-1, 3}, {-4, 0}, {-6, 2}} {
		s := db.Session(c.core)
		if got := s.Core(); got != c.want {
			t.Fatalf("Session(%d).Core() = %d, want %d", c.core, got, c.want)
		}
		k := []byte(fmt.Sprintf("core%d", c.core))
		if err := s.Put(k, []byte("v")); err != nil {
			t.Fatalf("Session(%d).Put: %v", c.core, err)
		}
		if v, err := s.Get(k); err != nil || string(v) != "v" {
			t.Fatalf("Session(%d).Get = %q, %v", c.core, v, err)
		}
	}
}

func TestMetrics(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := 0; i < 5000; i++ {
		s.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64))
	}
	db.Flush()
	m := db.Metrics()
	if m.MediaWriteBytes == 0 {
		t.Fatal("no media writes recorded")
	}
	if m.WriteHitRatio <= 0 || m.WriteHitRatio > 1 {
		t.Fatalf("write hit ratio = %v", m.WriteHitRatio)
	}
}

// TestShardedRegistersEveryEngineMetric holds the router's registry to the
// single engine's: every metric name the one-engine store publishes must be
// published at Shards: 2 (summed across shards), and the LSM level gauges
// must actually read the shards' trees — after a load that is flushed but too
// small to compact, L0 holds files.
func TestShardedRegistersEveryEngineMetric(t *testing.T) {
	single, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer single.Close()
	sharded, err := Open(Options{PMemMB: 1024, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()

	s := sharded.Session(0)
	for i := 0; i < 5000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := sharded.Flush(); err != nil {
		t.Fatal(err)
	}
	snap := sharded.Registry().Gather()
	for _, name := range single.Registry().Names() {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("metric %q is published by the single engine but not at Shards: 2", name)
		}
	}
	if snap.Int("compact_jobs") != 0 {
		t.Fatalf("load was meant to flush without compacting; %d jobs ran", snap.Int("compact_jobs"))
	}
	if got := snap.Float("lsm_l0_files"); got <= 0 {
		t.Errorf("lsm_l0_files = %v after a flushed load, want > 0", got)
	}
}

// sst_point_direct counts every foreground block load served in place — a
// Get's and a scan iterator's alike — so the report invariant that bounds it,
// direct + admitted <= misses, has to hold on a report that is mostly scans.
func TestVerifyHoldsOnScanHeavyReport(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	const keys = 20000
	for i := 0; i < keys; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	before := db.Registry().Gather()
	for i := 0; i < 1500; i++ {
		start := (i * 7919) % (keys - 50)
		n, err := s.Scan([]byte(fmt.Sprintf("k%06d", start)), 50, func(k, v []byte) bool { return true })
		if err != nil || n != 50 {
			t.Fatalf("Scan from %d: %d rows, %v", start, n, err)
		}
		if i%10 == 0 {
			if _, err := s.Get([]byte(fmt.Sprintf("k%06d", start))); err != nil {
				t.Fatal(err)
			}
		}
	}
	snap := db.Registry().Gather()
	run := obs.RunReport{Metrics: snap}
	if bad := run.Verify(); len(bad) != 0 {
		t.Fatalf("scan-heavy report violates its invariants: %v", bad)
	}
	direct := snap.Int(obs.MSSTPointDirect) - before.Int(obs.MSSTPointDirect)
	if direct < 1500/2 {
		t.Fatalf("1500 scans moved sst_point_direct by %d: scan blocks served in place are not counted", direct)
	}
	if d, a, m := snap.Int(obs.MSSTPointDirect), snap.Int(obs.MBlockCacheAdmitted), snap.Int(obs.MBlockCacheMisses); d+a > m || a == 0 {
		t.Fatalf("direct %d + admitted %d vs misses %d", d, a, m)
	}
}

// TestSlowOpsThroughPublicAPI follows Options.SlowOpThreshold to DB.SlowOps
// through the public surface alone: a 1 ns static threshold makes every op a
// Verify-clean dossier stamped with the engine's flow state; a negative
// threshold and DisableObs capture nothing; and after SimulateCrash the
// collector, rebound to the recovered engine, numbers its dossiers on from
// where the crashed instance stopped.
func TestSlowOpsThroughPublicAPI(t *testing.T) {
	put := func(t *testing.T, db *DB, prefix string, n int) {
		t.Helper()
		s := db.Session(0)
		for i := 0; i < n; i++ {
			if err := s.Put([]byte(fmt.Sprintf("%s%05d", prefix, i)), []byte("v")); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(t *testing.T, ds []obs.Dossier) {
		t.Helper()
		if bad := obs.VerifySlowOps(ds); len(bad) != 0 {
			t.Fatalf("dossiers violate their invariants: %v", bad)
		}
		for _, d := range ds {
			if d.FlowState == "" {
				t.Fatalf("dossier %d (%s) carries no flow state", d.Seq, d.Op)
			}
		}
	}

	for name, opts := range map[string]Options{
		"negative threshold": {PMemMB: 1024, SlowOpThreshold: -1},
		"DisableObs":         {PMemMB: 1024, SlowOpThreshold: 1, DisableObs: true},
	} {
		t.Run(name, func(t *testing.T) {
			db, err := Open(opts)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			put(t, db, "k", 200)
			if ds := db.SlowOps(); ds != nil {
				t.Fatalf("capture is off, yet SlowOps returned %d dossiers", len(ds))
			}
		})
	}

	db, err := Open(Options{PMemMB: 1024, SlowOpThreshold: 1})
	if err != nil {
		t.Fatal(err)
	}
	const before, after = 200, 10
	put(t, db, "a", before)
	ds := db.SlowOps()
	if len(ds) == 0 {
		t.Fatal("a 1 ns threshold captured nothing")
	}
	check(t, ds)
	last := ds[len(ds)-1].Seq
	if last != before {
		t.Fatalf("newest dossier is #%d after %d Puts", last, before)
	}

	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	put(t, db2, "b", after)
	ds = db2.SlowOps()
	if len(ds) < after {
		t.Fatalf("%d dossiers retained after the crash, want at least %d", len(ds), after)
	}
	tail := ds[len(ds)-after:]
	check(t, tail)
	for i, d := range tail {
		if want := last + uint64(i) + 1; d.Seq != want || d.Op != "put" {
			t.Fatalf("post-crash dossier %d is #%d %s, want #%d put", i, d.Seq, d.Op, want)
		}
	}
}

func TestCustomKnobs(t *testing.T) {
	db, err := Open(Options{
		PMemMB:        1024,
		SubMemTableKB: 512,
		FlushThreads:  2,
		tune: func(o *core.Options) {
			o.PoolBytes, o.SyncThreshold, o.ImmZoneBytes = 6<<20, 16, 8<<20
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := 0; i < 20000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get([]byte("k010000")); err != nil {
		t.Fatal(err)
	}
}

// TestFlushServersDefaultToFour: zero Options open four flush servers and
// FlushThreads: 1 opens one. The flush counters tell them apart: a writer that
// outruns one server keeps several busy at once only when there are several,
// and then the servers' busy time exceeds the virtual time the load and its
// FlushAll took — one server's cannot.
func TestFlushServersDefaultToFour(t *testing.T) {
	for _, c := range []struct{ threads, servers int }{{0, 4}, {1, 1}} {
		var servers int
		db, err := Open(Options{PMemMB: 1024, SubMemTableKB: 256, FlushThreads: c.threads, tune: func(o *core.Options) {
			smallGeometry(o)
			servers = o.FlushThreads
		}})
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session(0)
		for i := 0; i < 20000; i++ {
			if err := s.Put([]byte(fmt.Sprintf("k%07d", i)), make([]byte, 100)); err != nil {
				t.Fatal(err)
			}
		}
		// FlushAll returns its caller once the last flush server frees.
		th := db.machine.NewThread(0)
		if err := db.inner.FlushAll(th); err != nil {
			t.Fatal(err)
		}
		busy, elapsed := db.Registry().Gather().Int("flush_busy_ns"), th.Clock.Now()
		db.Close()
		if servers != c.servers {
			t.Errorf("FlushThreads: %d opened %d flush servers, want %d", c.threads, servers, c.servers)
		}
		if several := busy > elapsed; several != (c.servers > 1) {
			t.Errorf("FlushThreads: %d: the flush servers were busy %d vns in %d elapsed", c.threads, busy, elapsed)
		}
	}
}

func TestBatchPublicAPI(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	var b Batch
	b.Put([]byte("acct:alice"), []byte("90"))
	b.Put([]byte("acct:bob"), []byte("110"))
	b.Delete([]byte("acct:carol"))
	if b.Len() != 3 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Get([]byte("acct:alice")); string(v) != "90" {
		t.Fatalf("alice = %q", v)
	}
	if v, _ := s.Get([]byte("acct:bob")); string(v) != "110" {
		t.Fatalf("bob = %q", v)
	}
	// Batches survive crashes atomically.
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session(0)
	if v, _ := s2.Get([]byte("acct:bob")); string(v) != "110" {
		t.Fatalf("bob after crash = %q", v)
	}
}

// TestBatchDeleteRangeSharded: a DeleteRange queued in a batch reaches every
// shard of a sharded store, atomically with the batch's point ops, and the
// outcome survives a crash.
func TestBatchDeleteRangeSharded(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024, Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%03d", i)) }
	s := db.Session(0)
	for i := 0; i < 100; i++ {
		if err := s.Put(key(i), []byte("v")); err != nil {
			t.Fatal(err)
		}
	}
	var b Batch
	b.Put([]byte("marker"), []byte("m"))
	b.DeleteRange(key(0), key(50))
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	check := func(s *Session, when string) {
		t.Helper()
		for i := 0; i < 100; i++ {
			_, err := s.Get(key(i))
			if i < 50 && err != ErrNotFound {
				t.Fatalf("%s: %s inside the range survived: %v", when, key(i), err)
			} else if i >= 50 && err != nil {
				t.Fatalf("%s: %s outside the range lost: %v", when, key(i), err)
			}
		}
		if v, err := s.Get([]byte("marker")); err != nil || string(v) != "m" {
			t.Fatalf("%s: marker = %q, %v", when, v, err)
		}
	}
	check(s, "live")
	db2, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2.Session(0), "recovered")
}

func TestBatchUnsupportedEngine(t *testing.T) {
	db, err := Open(Options{Engine: EngineNoveLSM, PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	if err := s.Apply(&b); err == nil {
		t.Fatal("NoveLSM accepted a CacheKV batch")
	}
}

// A table footer carries a magic and no CRC. A store reopened over one that
// no longer reads as a footer reports it by the public name: callers need not
// import internal/util to tell a damaged image from an absent key.
func TestCorruptFooterIsErrCorrupt(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024, SubMemTableKB: 256, tune: func(o *core.Options) {
		o.PoolBytes, o.ImmZoneBytes = 2<<20, 4<<20
	}})
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session(0)
	for i := 0; i < 2000; i++ {
		if err := s.Put([]byte(fmt.Sprintf("key%05d", i)), []byte("value")); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil { // the keys now live in tables only
		t.Fatal(err)
	}
	// Find the tables through the directory the engine wrote, and flip the
	// last byte of each one's footer.
	region, ok := db.machine.LookupRegion("cachekv.fs")
	if !ok {
		t.Fatal("no filesystem region")
	}
	view, err := pmemfs.Mount(db.machine, region, db.machine.NewThread(0))
	if err != nil {
		t.Fatal(err)
	}
	names := view.List()
	if len(names) == 0 {
		t.Fatal("Flush left no table")
	}
	for _, name := range names {
		f, err := view.Open(name)
		if err != nil {
			t.Fatal(err)
		}
		var b [1]byte
		db.machine.PMem.LoadRaw(f.Addr(f.Size()-1), b[:])
		b[0] ^= 0x01
		db.machine.PMem.StoreRaw(f.Addr(f.Size()-1), b[:])
	}
	// The tree opens a table on the first read that reaches it.
	ndb, err := db.SimulateCrash()
	if err == nil {
		defer ndb.Close()
		_, err = ndb.Session(0).Get([]byte("key00042"))
	}
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("reading through a flipped footer = %v, want ErrCorrupt", err)
	}
}
