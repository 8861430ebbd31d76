package core

import (
	"errors"
	"fmt"
	"testing"

	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// TestFaultImmZoneTooSmallForTable verifies the engine fails cleanly (rather
// than deadlocking) when a sub-MemTable cannot fit the ImmZone at all.
func TestFaultImmZoneTooSmallForTable(t *testing.T) {
	m := testMachine()
	opts := DefaultOptions()
	opts.PoolBytes = 8 << 20
	opts.SubMemTableBytes = 4 << 20
	opts.ImmZoneBytes = 1 << 20 // smaller than one table: config error
	opts.FSBytes = 64 << 20
	th := m.NewThread(0)
	e, err := Open(m, opts, th)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(th)
	var lastErr error
	for i := 0; i < 200000; i++ {
		if lastErr = e.Put(th, []byte(fmt.Sprintf("k%08d", i)), make([]byte, 64)); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		t.Fatal("engine accepted writes forever despite an impossible ImmZone")
	}
}

// TestFaultFSExhaustion verifies the storage layer's out-of-space error
// surfaces through the engine instead of hanging background threads.
func TestFaultFSExhaustion(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	opts.FSBytes = 4 << 20 // tiny SSTable space: spills must run out
	th := m.NewThread(0)
	e, err := Open(m, opts, th)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close(th)
	var lastErr error
	for i := 0; i < 500000; i++ {
		if lastErr = e.Put(th, []byte(fmt.Sprintf("k%08d", i%100000)), make([]byte, 64)); lastErr != nil {
			break
		}
	}
	if lastErr == nil {
		lastErr = e.FlushAll(th)
	}
	if lastErr == nil {
		t.Fatal("no error despite exhausting the SSTable file layer")
	}
}

// TestFaultOperationsAfterFailure verifies the engine stays failed (and
// consistent about it) once a background error is recorded.
func TestFaultOperationsAfterFailure(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	e.fail(fmt.Errorf("injected failure"))
	if err := e.Put(th, []byte("k"), []byte("v")); err == nil {
		t.Fatal("Put succeeded on a failed engine")
	}
	if _, err := e.Get(th, []byte("k")); err == nil || err == kvstore.ErrNotFound {
		t.Fatalf("Get on failed engine returned %v", err)
	}
	if err := e.FlushAll(th); err == nil {
		t.Fatal("FlushAll succeeded on a failed engine")
	}
}

// TestFaultCrashStopsEverything: after Crash, Close is the crash-stop — it
// returns the crash error, every later operation fails with it — and nothing
// the dead engine or its session does reaches the media.
func TestFaultCrashStopsEverything(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	for i := 0; i < 5000; i++ {
		e.Put(th, []byte(fmt.Sprintf("k%06d", i)), make([]byte, 64))
	}
	// Settled, so that no job of the dead engine trips over what it failed to
	// store and fails it before Close does.
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	m.Crash()
	before := m.PMem.Snapshot()
	if err := e.Put(th, []byte("dead"), []byte("v")); err != nil {
		t.Fatalf("Put between Crash and Close = %v: the engine cannot know of the crash yet", err)
	}
	if err := e.Close(th); !errors.Is(err, errEngineCrashed) {
		t.Fatalf("Close after Crash = %v, want the crash-stop", err)
	}
	if err := e.Put(th, []byte("post"), []byte("v")); !errors.Is(err, errEngineCrashed) {
		t.Fatalf("Put after the crash-stop = %v, want the crash error", err)
	}
	if after := m.PMem.Snapshot(); after != before {
		t.Fatalf("the dead engine reached the media:\n before %+v\n after  %+v", before, after)
	}
	if m.Cache.Stats().PostCrashStores == 0 {
		t.Fatal("the Put after Crash stored nothing to refuse")
	}
}

// TestCloseDropsTheMemoryComponent: a closed engine keeps no DRAM index — not
// the active-key table, a slot's sub-skiplist, a registered table nor the
// flush buffer — so that the engine a power cut reopens on the machine is not
// allocated beside the dead one's. The dead engine refuses its session with
// ErrClosed.
func TestCloseDropsTheMemoryComponent(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	for i := 0; !e.mem.registered(); i++ {
		if i == 100_000 {
			t.Fatal("no flushed table registered")
		}
		if err := e.Put(th, []byte(fmt.Sprintf("k%06d", i)), make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
	}
	m.Crash()
	if err := e.Close(th); !errors.Is(err, kvstore.ErrClosed) {
		t.Fatalf("Close after Crash = %v, want ErrClosed", err)
	}
	if n := len(e.active.Load().buckets); n != minBuckets {
		t.Errorf("the closed engine's active-key table keeps %d lines", n)
	}
	if e.mem.registered() {
		t.Error("the closed engine keeps its registered tables")
	}
	for _, s := range e.pool.slotList() {
		if s.list != nil {
			t.Errorf("the closed engine keeps slot %d's sub-skiplist", s.idx)
		}
	}
	if e.flushBuf != nil {
		t.Error("the closed engine keeps its flush buffer")
	}
	if _, err := e.Get(th, []byte("k000000")); !errors.Is(err, kvstore.ErrClosed) {
		t.Fatalf("Get after Close = %v, want ErrClosed", err)
	}
}

// TestSpillRefusesACorruptEntry: an ImmZone entry that fails its CRC fails the
// spill with util.ErrCorrupt before a table is retired. The merge once ended
// the table's walk at such an entry: the spill installed an L0 missing every
// key after it, retired the table, and FlushAll returned nil while those
// acknowledged keys read as absent.
func TestSpillRefusesACorruptEntry(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	var keys [][]byte
	for i := 0; !e.mem.registered(); i++ {
		if i == 100_000 {
			t.Fatal("no flushed table registered")
		}
		k := []byte(fmt.Sprintf("k%06d", i))
		if err := e.Put(th, k, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	e.mem.mu.RLock()
	tab := e.mem.imms[0]
	e.mem.mu.RUnlock()
	// Flip the last value byte of the table's middle entry in key order.
	it := tab.list.NewIterator()
	var offs []uint64
	for it.SeekToFirst(); it.Valid(); it.Next() {
		offs = append(offs, util.Fixed64(it.Value()))
	}
	if len(offs) < 2 {
		t.Fatalf("the registered table holds %d entries", len(offs))
	}
	addr := tab.base + offs[len(offs)/2]
	var hdr [4]byte
	m.PMem.LoadRaw(addr, hdr[:])
	var b [1]byte
	at := addr + 8 + uint64(util.Fixed32(hdr[:])) - 1
	m.PMem.LoadRaw(at, b[:])
	b[0] ^= 0xff
	m.PMem.StoreRaw(at, b[:])

	if err := e.FlushAll(th); !errors.Is(err, util.ErrCorrupt) {
		t.Fatalf("FlushAll over a corrupt ImmZone entry = %v, want ErrCorrupt", err)
	}
	for _, k := range keys {
		if _, err := e.Get(th, k); errors.Is(err, kvstore.ErrNotFound) {
			t.Fatalf("acknowledged key %s reads as absent after the spill failed", k)
		}
	}
}
