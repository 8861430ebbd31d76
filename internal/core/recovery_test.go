package core

import (
	"fmt"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
)

// crashAndReopen simulates power failure and recovers a fresh engine over the
// same machine (DRAM structures are dropped by discarding the old Engine).
func crashAndReopen(t *testing.T, m *hw.Machine, opts Options) (*Engine, *hw.Thread) {
	t.Helper()
	m.Crash()
	m.Recover()
	th := m.NewThread(0)
	e, err := newEngine(m, opts, shardEnv{}, th)
	if err != nil {
		t.Fatal(err)
	}
	return e, th
}

func TestRecoveryFromActiveSubMemTables(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	for i := 0; i < 500; i++ {
		if err := e.Put(th, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// No FlushAll, no Close: everything lives in the (persistent) cache.
	e2, th2 := crashAndReopen(t, m, opts)
	defer e2.Close(th2)
	for i := 0; i < 500; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, err := e2.Get(th2, k)
		if err != nil {
			t.Fatalf("lost %s across eADR crash: %v", k, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %s = %q", k, v)
		}
	}
}

func TestRecoveryFromImmZoneAndTree(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	opts.ImmZoneBytes = 512 << 10
	e, th := openEngine(t, m, opts)
	n := 20000
	for i := 0; i < n; i++ {
		if err := e.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// Let flushes and spills land, then crash without closing.
	e.FlushAll(th)
	if e.stats.Spills.Load() == 0 {
		t.Fatal("test needs spills to be meaningful")
	}
	e2, th2 := crashAndReopen(t, m, opts)
	defer e2.Close(th2)
	for i := 0; i < n; i += 307 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := e2.Get(th2, k)
		if err != nil {
			t.Fatalf("lost %s: %v", k, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %s = %q", k, v)
		}
	}
}

func TestRecoveryPreservesFreshness(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	// Old versions forced down into flushed tables...
	for i := 0; i < 5000; i++ {
		e.Put(th, []byte(fmt.Sprintf("key%04d", i%500)), []byte(fmt.Sprintf("old%d", i)))
	}
	e.FlushAll(th)
	// ...then fresh versions left in active sub-MemTables at crash time.
	for i := 0; i < 500; i++ {
		e.Put(th, []byte(fmt.Sprintf("key%04d", i)), []byte(fmt.Sprintf("new%d", i)))
	}
	e2, th2 := crashAndReopen(t, m, opts)
	defer e2.Close(th2)
	for i := 0; i < 500; i += 17 {
		k := []byte(fmt.Sprintf("key%04d", i))
		v, err := e2.Get(th2, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(v) != fmt.Sprintf("new%d", i) {
			t.Fatalf("recovery resurrected stale value for %s: %q", k, v)
		}
	}
}

func TestRecoveryPreservesTombstones(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	e.Put(th, []byte("doomed"), []byte("v"))
	e.FlushAll(th)
	e.Delete(th, []byte("doomed"))
	e2, th2 := crashAndReopen(t, m, opts)
	defer e2.Close(th2)
	if _, err := e2.Get(th2, []byte("doomed")); err != kvstore.ErrNotFound {
		t.Fatalf("tombstone lost across crash: %v", err)
	}
}

func TestRecoveredEngineKeepsWorking(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	for i := 0; i < 1000; i++ {
		e.Put(th, []byte(fmt.Sprintf("pre%05d", i)), []byte("x"))
	}
	e2, th2 := crashAndReopen(t, m, opts)
	defer e2.Close(th2)
	// New writes must get sequence numbers above everything recovered.
	for i := 0; i < 1000; i++ {
		e2.Put(th2, []byte(fmt.Sprintf("pre%05d", i)), []byte("y"))
	}
	for i := 0; i < 1000; i += 97 {
		v, err := e2.Get(th2, []byte(fmt.Sprintf("pre%05d", i)))
		if err != nil || string(v) != "y" {
			t.Fatalf("post-recovery write lost: %q, %v", v, err)
		}
	}
	if err := e2.FlushAll(th2); err != nil {
		t.Fatal(err)
	}
}

func TestADRCrashLosesUnflushedWrites(t *testing.T) {
	// Control experiment: on an ADR machine (volatile caches) the same crash
	// loses data that only ever lived in the cache, proving the eADR tests
	// above are not vacuous.
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	cfg.Cache.Domain = cache.ADR
	m := hw.NewMachine(cfg)
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	for i := 0; i < 100; i++ {
		e.Put(th, []byte(fmt.Sprintf("key%03d", i)), []byte("v"))
	}
	_ = e // crash without flush
	m.Crash()
	m.Recover()
	th2 := m.NewThread(0)
	e2, err := Open(m, opts, th2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close(th2)
	lost := 0
	for i := 0; i < 100; i++ {
		if _, err := e2.Get(th2, []byte(fmt.Sprintf("key%03d", i))); err == kvstore.ErrNotFound {
			lost++
		}
	}
	if lost == 0 {
		t.Fatal("ADR crash lost nothing — persistence domains are not being modeled")
	}
}

func TestDoubleCrash(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	for i := 0; i < 300; i++ {
		e.Put(th, []byte(fmt.Sprintf("a%04d", i)), []byte("1"))
	}
	e2, th2 := crashAndReopen(t, m, opts)
	for i := 0; i < 300; i++ {
		e2.Put(th2, []byte(fmt.Sprintf("b%04d", i)), []byte("2"))
	}
	e3, th3 := crashAndReopen(t, m, opts)
	defer e3.Close(th3)
	for i := 0; i < 300; i += 29 {
		if v, err := e3.Get(th3, []byte(fmt.Sprintf("a%04d", i))); err != nil || string(v) != "1" {
			t.Fatalf("first-generation key lost: %q, %v", v, err)
		}
		if v, err := e3.Get(th3, []byte(fmt.Sprintf("b%04d", i))); err != nil || string(v) != "2" {
			t.Fatalf("second-generation key lost: %q, %v", v, err)
		}
	}
}
