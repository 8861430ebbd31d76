package cachekv

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
)

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

func TestCustomKnobs(t *testing.T) {
	db, err := Open(Options{
		PMemMB:        1024,
		PoolMB:        6,
		SubMemTableKB: 512,
		FlushThreads:  2,
		SyncThreshold: 16,
		ImmZoneMB:     8,
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
	db, err := Open(Options{PMemMB: 1024, PoolMB: 2, SubMemTableKB: 256, ImmZoneMB: 4})
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
