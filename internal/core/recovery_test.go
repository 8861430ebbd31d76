package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

// crash cuts m's power and stops dead, the store it killed, as every crash
// caller must before Recover: a job of dead still running past Recover would
// run on a live machine.
func crash(m *hw.Machine, dead kvstore.DB) {
	m.Crash()
	_ = dead.Close(m.NewThread(0))
}

// crashAndReopen simulates power failure under dead and recovers a fresh
// engine over the same machine (DRAM structures are dropped by discarding the
// old Engine).
func crashAndReopen(t *testing.T, dead *Engine, opts Options) (*Engine, *hw.Thread) {
	t.Helper()
	m := dead.m
	crash(m, dead)
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
	e2, th2 := crashAndReopen(t, e, opts)
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
	e2, th2 := crashAndReopen(t, e, opts)
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
	e2, th2 := crashAndReopen(t, e, opts)
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
	e2, th2 := crashAndReopen(t, e, opts)
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
	e2, th2 := crashAndReopen(t, e, opts)
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
	crash(m, e) // without a flush
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
	e2, th2 := crashAndReopen(t, e, opts)
	for i := 0; i < 300; i++ {
		e2.Put(th2, []byte(fmt.Sprintf("b%04d", i)), []byte("2"))
	}
	e3, th3 := crashAndReopen(t, e2, opts)
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

// TestCrashBeforeTheRecoveredSlotFlushes: recovery seals the pool's live
// sub-MemTable, and the flush kind copies it into the ImmZone once Open has
// returned. A second power failure at any store of that flush — the table
// header, the data copy (its last store into the zone), or the slot's release
// after it — loses no acked key: the slot says Immutable until released, so
// the next recovery finds the entries there (in the last case, in the zone as
// well). A gate stops the flush at the store, so the crash point does not
// depend on host timing; while it is stopped before its copy, a Get finds the
// keys in the sealed slot, the only place holding them.
func TestCrashBeforeTheRecoveredSlotFlushes(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   int32 // the flush's store to crash at: 1 header, 2 data, 3 release
	}{
		{"first ImmZone store", 1},
		{"last ImmZone store", 2},
		{"slot release", 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			opts := smallOpts()
			e, th := openEngine(t, m, opts)
			const n = 300
			key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
			val := func(i int) string { return fmt.Sprintf("v%d", i) }
			for i := 0; i < n; i++ {
				if err := e.Put(th, key(i), []byte(val(i))); err != nil {
					t.Fatal(err)
				}
			}
			var live []*slot
			for _, s := range e.pool.slotList() {
				if _, state, _ := unpackHdr(s.hdr.Load()); state != stateFree {
					live = append(live, s)
				}
			}
			if len(live) != 1 || e.stats.Flushes.Load() != 0 {
				t.Fatalf("%d live slots after %d flushes, want the keys in one unflushed slot", len(live), e.stats.Flushes.Load())
			}
			slotAddr, zone := live[0].addr, e.immArena.Region()
			crash(m, e)

			// The stop store is not applied, as at a crash point of the fault
			// injector; the flush waits there until the power is off.
			var zoneStores atomic.Int32
			var stopped atomic.Bool
			reached, release := make(chan struct{}), make(chan struct{})
			m.SetMemGate(func(op sim.MemOp, addr uint64, size int) int {
				var stop bool
				switch {
				case op == sim.MemOpNTWrite && zone.Addr <= addr && addr < zone.End():
					stop = zoneStores.Add(1) == tc.at
				case op == sim.MemOpWrite && addr == slotAddr:
					stop = tc.at == 3 && zoneStores.Load() == 2
				}
				if !stop || !stopped.CompareAndSwap(false, true) {
					return size
				}
				close(reached)
				<-release
				return 0
			})
			m.Recover()
			th2 := m.NewThread(0)
			e2, err := newEngine(m, opts, shardEnv{}, th2)
			if err != nil {
				t.Fatal(err)
			}
			select {
			case <-reached:
			case <-time.After(5 * time.Second):
				t.Fatal("the recovered slot's flush never reached the store to crash at")
			}
			if tc.at < 3 {
				e2.mem.mu.RLock()
				registered := len(e2.mem.imms)
				e2.mem.mu.RUnlock()
				if registered != 0 {
					t.Fatalf("%d tables registered while the flush is stopped before its copy", registered)
				}
			}
			for i := 0; i < n; i++ {
				if v, err := e2.Get(th2, key(i)); err != nil || string(v) != val(i) {
					t.Fatalf("Get(%s) = %q, %v while the recovered slot awaits its flush", key(i), v, err)
				}
			}
			// Before its release the sealed slot is active, and recovery
			// entered its keys in the active-key table: each Get was
			// answered there, none by syncing and searching the slot.
			if probes, fell := e2.stats.FilterProbes.Load(), e2.stats.ProbeFallbacks.Load(); tc.at < 3 && (probes != n || fell != 0) {
				t.Fatalf("%d Gets probed the table %d times and fell back %d times", n, probes, fell)
			}

			m.Crash()
			close(release)
			_ = e2.Close(m.NewThread(0))
			m.SetMemGate(nil)
			m.Recover()
			th3 := m.NewThread(0)
			e3, err := newEngine(m, opts, shardEnv{}, th3)
			if err != nil {
				t.Fatal(err)
			}
			defer e3.Close(th3)
			for i := 0; i < n; i++ {
				if v, err := e3.Get(th3, key(i)); err != nil || string(v) != val(i) {
					t.Fatalf("Get(%s) = %q, %v after a crash in the recovered slot's flush", key(i), v, err)
				}
			}
		})
	}
}

// TestRecoveredTablesAreCacheResident: recovery reads every table through the
// LLC under the partition that owns its bytes, so a store that crashed with
// ImmZone tables and a live sub-MemTable reopens with the slot's lines in the
// pool partition and the tables' lines in the default one, and a Get of every
// key reads nothing from media. A gate holds the recovered slot's flush at its
// first ImmZone store meanwhile, so each Get finds its key where recovery left
// it. Under ADR the same script serves only what reached media: the flushed
// tables' versions, never the slot's, which the power cut lost.
func TestRecoveredTablesAreCacheResident(t *testing.T) {
	for _, domain := range []cache.Domain{cache.EADR, cache.ADR} {
		t.Run(domain.String(), func(t *testing.T) {
			cfg := hw.DefaultConfig()
			cfg.PMemBytes = 1 << 30
			cfg.Cache.Domain = domain
			m := hw.NewMachine(cfg)
			opts := smallOpts()
			e, th := openEngine(t, m, opts)
			key := func(i int) []byte { return []byte(fmt.Sprintf("key%06d", i)) }
			n := fillFlushed(t, e, th, 2, key, []byte("flushed"))
			_, flushed := memTables(e) // keys 0 .. flushed-1 are in the zone
			const more = 100
			for i := range more {
				if err := e.Put(th, key(i), []byte("overwritten")); err != nil {
					t.Fatal(err)
				}
				if err := e.Put(th, key(n+i), []byte("fresh")); err != nil {
					t.Fatal(err)
				}
			}
			if e.pendingFlushes.Load() != 0 || e.stats.Flushes.Load() != 2 || flushed < more {
				t.Fatalf("%d flushes, %d pending, %d keys flushed: want the last writes in the active sub-MemTable", e.stats.Flushes.Load(), e.pendingFlushes.Load(), flushed)
			}
			zone := e.immArena.Region()
			crash(m, e)

			var stopped atomic.Bool
			release := make(chan struct{})
			m.SetMemGate(func(op sim.MemOp, addr uint64, size int) int {
				if op == sim.MemOpNTWrite && zone.Addr <= addr && addr < zone.End() && stopped.CompareAndSwap(false, true) {
					<-release
				}
				return size
			})
			defer m.SetMemGate(nil)
			m.Recover()
			th2 := m.NewThread(0)
			e2, err := newEngine(m, opts, shardEnv{}, th2)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close(th2)
			defer close(release)

			want := func(i int) string {
				switch {
				case domain == cache.ADR && i >= int(flushed):
					return "" // only the slot held it
				case i < more:
					if domain == cache.ADR {
						return "flushed"
					}
					return "overwritten"
				case i >= n:
					return "fresh"
				}
				return "flushed"
			}
			if domain == cache.EADR {
				tables, _ := memTables(e2)
				var slots int
				for _, s := range e2.pool.slotList() {
					if _, state, tail := unpackHdr(s.hdr.Load()); state == stateImmutable {
						slots++
						checkHolder(t, m, s.dataAddr(), tail, e2.poolPart)
					}
				}
				e2.mem.mu.RLock()
				for _, tb := range e2.mem.imms {
					checkHolder(t, m, tb.base, tb.dataLen, cache.DefaultPartition)
				}
				e2.mem.mu.RUnlock()
				if tables != 3 || slots != 1 {
					t.Fatalf("recovered %d tables, %d of them in sealed slots: want the zone's two and one slot", tables, slots)
				}
			}
			before := m.PMem.Snapshot().MediaReadB
			for i := range n + more {
				v, err := e2.Get(th2, key(i))
				if w := want(i); w == "" && !errors.Is(err, kvstore.ErrNotFound) || w != "" && (err != nil || string(v) != w) {
					t.Fatalf("Get(%s) = %q, %v after a %v crash, want %q", key(i), v, err, domain, w)
				}
			}
			if read := m.PMem.Snapshot().MediaReadB - before; domain == cache.EADR && read != 0 {
				t.Errorf("the Gets after recovery read %d bytes from media, want 0", read)
			}
		})
	}
}

// checkHolder fails t unless every line of [base, base+n) is in the LLC,
// held by partition part.
func checkHolder(t *testing.T, m *hw.Machine, base, n uint64, part cache.PartitionID) {
	t.Helper()
	for a := base &^ 63; a < base+n; a += 64 {
		if p, ok := m.Cache.Holder(a); !ok || p != part {
			t.Fatalf("line %#x of the recovered table at %#x: held %v by partition %d, want by %d", a, base, ok, p, part)
		}
	}
}

// TestCrashBetweenFlushExtents: at four flush servers a full 2 MiB
// sub-MemTable copies as several extents. A power cut after the first
// extent's stores and before the last one's leaves the ImmZone a header and
// part of the table; recovery registers no table short of its header's count
// — the slot still holds every entry — and serves every acknowledged key
// exactly once.
func TestCrashBetweenFlushExtents(t *testing.T) {
	m := testMachine()
	o := smallOpts()
	o.FlushThreads = 4
	o.SubMemTableBytes = 2 << 20
	o.PoolBytes = 8 << 20
	o.ImmZoneBytes = 16 << 20
	e, th := openEngine(t, m, o)
	key := func(i int) []byte { return fmt.Appendf(nil, "key%07d", i) }
	val := func(i int) string { return fmt.Sprintf("v%07d%0100d", i, 0) }

	// Stop the first flush at its second extent's store (the header is the
	// zone's first store): the store is not applied, as at a crash point of
	// the fault injector, and the flush waits there until the power is off.
	zone := e.immArena.Region()
	var zoneStores atomic.Int32
	reached, release := make(chan struct{}), make(chan struct{})
	m.SetMemGate(func(op sim.MemOp, addr uint64, size int) int {
		if op != sim.MemOpNTWrite || addr < zone.Addr || addr >= zone.End() || zoneStores.Add(1) != 3 {
			return size
		}
		close(reached)
		<-release
		return 0
	})
	acked := 0
writes:
	for ; acked < 1<<20; acked++ {
		select {
		case <-reached:
			break writes
		default:
		}
		if err := e.Put(th, key(acked), []byte(val(acked))); err != nil {
			t.Fatal(err)
		}
	}
	select {
	case <-reached:
	default:
		t.Fatal("no flush reached its second extent after a million writes")
	}
	m.Crash()
	close(release)
	_ = e.Close(m.NewThread(0))
	m.SetMemGate(nil)
	m.Recover()

	th2 := m.NewThread(0)
	e2, err := newEngine(m, o, shardEnv{}, th2)
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close(th2)
	e2.mem.mu.RLock()
	imms := slices.Clone(e2.mem.imms)
	e2.mem.mu.RUnlock()
	for _, tb := range imms {
		if _, count, _, ok := e2.readImmHdr(th2, zone, tb.base-immZoneHdrSize); !ok || tb.count != count {
			t.Errorf("an ImmZone table registered with %d of its header's %d entries", tb.count, count)
		}
	}
	if _, entries := memTables(e2); entries != uint64(acked) {
		t.Errorf("the memory component holds %d entries for %d acknowledged keys", entries, acked)
	}
	for i := 0; i < acked; i++ {
		if v, err := e2.Get(th2, key(i)); err != nil || string(v) != val(i) {
			t.Fatalf("Get(%s) = %.12q, %v after the crash", key(i), v, err)
		}
	}
	rows := 0
	if _, err := e2.Scan(th2, nil, 0, func(k, v []byte) bool {
		if i := rows; string(k) != string(key(i)) || string(v) != val(i) {
			t.Fatalf("scan row %d is %s=%.12q", i, k, v)
		}
		rows++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if rows != acked {
		t.Fatalf("a scan returned %d rows for %d acknowledged keys", rows, acked)
	}
}

// fillFlushed writes key(0), key(1), … until the copy-based flush has moved
// tables sub-MemTables into the ImmZone and is idle again, and returns the
// number of writes. It checks between short bursts, so the active slot is left
// holding less than one burst — nowhere near its next seal.
func fillFlushed(t testing.TB, e *Engine, th *hw.Thread, tables int, key func(i int) []byte, val []byte) int {
	t.Helper()
	const burst = 64
	for i := 0; i < 1<<20; {
		for end := i + burst; i < end; i++ {
			if err := e.Put(th, key(i), val); err != nil {
				t.Fatal(err)
			}
		}
		for e.pendingFlushes.Load() > 0 {
			runtime.Gosched()
		}
		if int(e.stats.Flushes.Load()) >= tables {
			return i
		}
	}
	t.Fatalf("no %d flushes after a million writes", tables)
	return 0
}

// memTables reports the tables of e's memory component and the entries they
// hold: the registered sub-ImmMemTables, and the sealed slots whose flush has
// not registered theirs yet, as a recovered engine holds them until its flush
// kind lands them. It holds spillMu exclusively, which keeps every flush out
// of the span where its table is both registered and still in the slot.
func memTables(e *Engine) (tables int, entries uint64) {
	e.spillMu.Lock()
	defer e.spillMu.Unlock()
	e.mem.mu.RLock()
	for _, tb := range e.mem.imms {
		tables, entries = tables+1, entries+tb.count
	}
	e.mem.mu.RUnlock()
	for _, s := range e.pool.slotList() {
		s.syncMu.Lock()
		if _, state, _ := unpackHdr(s.hdr.Load()); state == stateImmutable && s.list != nil {
			tables, entries = tables+1, entries+s.listCount
		}
		s.syncMu.Unlock()
	}
	return tables, entries
}

// TestRecoveryRejectsWrappedImmHeader: an ImmZone header whose dataLen is
// close to 2^64 used to pass the extent check (addr+header+dataLen wrapped
// back to addr), so the scan never advanced and registered the same table
// until memory ran out. Recovery must return, end the zone at that header,
// and still serve what the sub-MemTable pool held.
func TestRecoveryRejectsWrappedImmHeader(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	val := make([]byte, 64)
	fillFlushed(t, e, th, 2, func(i int) []byte { return []byte(fmt.Sprintf("flushed%09d", i)) }, val)
	if n := len(e.mem.imms); n != 2 {
		t.Fatalf("ImmZone holds %d tables, want 2", n)
	}
	for i := 0; i < 50; i++ {
		if err := e.Put(th, []byte(fmt.Sprintf("pool%04d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if e.pendingFlushes.Load() != 0 || e.stats.Flushes.Load() != 2 {
		t.Fatal("the pool keys were meant to stay in the active sub-MemTable")
	}
	zone := e.immArena.Region()
	crash(m, e)
	wrapped := ^uint64(0) - immZoneHdrSize + 1 // zone.Addr + header + wrapped == zone.Addr
	m.PMem.StoreRaw(zone.Addr+8, util.PutFixed64(nil, wrapped))
	m.Recover()

	th2 := m.NewThread(0)
	var e2 *Engine
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		e2, err = newEngine(m, opts, shardEnv{}, th2)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("recovery hangs on a wrapped ImmZone dataLen")
	}
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close(th2)
	// The zone ended at its first header: the one table is the pool's.
	if n, _ := memTables(e2); n != 1 {
		t.Fatalf("recovered %d tables, want the active sub-MemTable's alone", n)
	}
	for i := 0; i < 50; i++ {
		k := []byte(fmt.Sprintf("pool%04d", i))
		if v, err := e2.Get(th2, k); err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v after recovering past the corrupt header", k, v, err)
		}
	}
}

// TestRecoveryVirtualCost pins what recovery costs per entry, in virtual time,
// which repeats exactly on one thread: four flushed tables and a part-filled
// active sub-MemTable, two keys in five overwritten, 16 B keys and 64 B values
// as in the ledger's crash-recover row. Reading the five tables side by side
// costs about 30 vns per entry (about 90 when the tables were read one after
// another); a second read of each entry or a per-key search of a global
// skiplist took it to 300 (340 at the ledger's table count). Entering the
// keys in the active-key table is charged nothing, as the sub-skiplist
// inserts beside it.
func TestRecoveryVirtualCost(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	n := fillForRecovery(t, e, th)

	opts.Trace = obs.NewTrace(0)
	e2, th2 := crashAndReopen(t, e, opts)
	defer e2.Close(th2)
	total, _ := recoverySpan(opts.Trace)
	tables, entries := memTables(e2)
	if tables != 5 || entries != uint64(n) {
		t.Fatalf("recovered %d entries in %d tables, want %d in 5", entries, tables, n)
	}
	perEntry := float64(total) / float64(entries)
	t.Logf("recovery: %d vns for %d entries = %.1f vns/entry", total, entries, perEntry)
	if perEntry > 50 {
		t.Errorf("recovery costs %.1f vns per entry, want at most 50", perEntry)
	}
}

// fillForRecovery leaves e with four flushed tables and a part-filled active
// sub-MemTable, two keys in five overwritten, 16 B keys and 64 B values as in
// the ledger's crash-recover row, and returns the number of writes.
func fillForRecovery(t *testing.T, e *Engine, th *hw.Thread) int {
	t.Helper()
	const unique = 2749 // prime, so the stride below visits every key
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%013d", i*1000003%unique)) }
	val := make([]byte, 64)
	n := fillFlushed(t, e, th, 4, key, val)
	for end := n + 400; n < end; n++ {
		if err := e.Put(th, key(n), val); err != nil {
			t.Fatal(err)
		}
	}
	if over := float64(n-unique) / float64(n); over < 0.3 || over > 0.5 {
		t.Fatalf("%d writes over %d keys: %.0f%% overwrites, want about 40%%", n, unique, over*100)
	}
	return n
}

// recoverySpan returns the virtual time from the trace's recovery_start to
// its recovery_end, and the servers recovery_end says the jobs took.
func recoverySpan(tr *obs.Trace) (span int64, workers any) {
	for _, ev := range tr.Events() {
		switch ev.Type {
		case "recovery_start":
			span -= ev.VNs
		case "recovery_end":
			span += ev.VNs
			workers = ev.Attrs["workers"]
		}
	}
	return span, workers
}

// TestRecoverySpanIsTheCriticalPath: steps 1 and 2 read each table as
// extents, each a job of its own on the machine's cores, so recovery's span
// is its critical path — the header walk, the busiest core's extents (the
// longest extent when there are more cores than extents) and the slots'
// header lines — not the sum of the extents, and never less than the busiest
// core's share.
func TestRecoverySpanIsTheCriticalPath(t *testing.T) {
	for _, cores := range []int{hw.DefaultConfig().Cores, 2} {
		t.Run(fmt.Sprintf("cores=%d", cores), func(t *testing.T) {
			cfg := hw.DefaultConfig()
			cfg.PMemBytes = 1 << 30
			cfg.Cores = cores
			m := hw.NewMachine(cfg)
			opts := smallOpts()
			e, th := openEngine(t, m, opts)
			fillForRecovery(t, e, th)
			zone, poolRegion := e.immArena.Region(), e.pool.region
			crash(m, e)
			m.Recover()
			walk, jobs, tables := priceRecovery(t, m, opts, zone, poolRegion)
			// Pricing read the tables through the LLC: power-cycle, so that
			// recovery finds the cache as cold as the pricing did.
			m.Crash()
			m.Recover()

			opts.Trace = obs.NewTrace(0)
			th2 := m.NewThread(0)
			e2, err := newEngine(m, opts, shardEnv{}, th2)
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close(th2)
			span, workers := recoverySpan(opts.Trace)

			// The extents start together and go to the earliest-free core, as
			// sim.ServerPool books them.
			busy := make([]int64, cores)
			var total int64
			for _, d := range jobs {
				busy[slices.Index(busy, slices.Min(busy))] += d
				total += d
			}
			busiest, longest := slices.Max(busy), slices.Max(jobs)
			slack := 4 * m.Costs.PMemReadRand // the slots' header lines
			t.Logf("span %d vns: walk %d, %d tables in %d extents (longest %d, busiest core %d)",
				span, walk, tables, len(jobs), longest, busiest)
			if tables != 5 {
				t.Fatalf("recovery read %d tables, want 5: four ImmZone tables and the active sub-MemTable", tables)
			}
			if want := min(len(jobs), cores); workers != want {
				t.Errorf("recovery_end says workers=%v, want %d", workers, want)
			}
			if span < busiest {
				t.Errorf("recovery took %d vns, less than the %d its busiest core's extents take", span, busiest)
			}
			if limit := walk + busiest + slack; span > limit {
				t.Errorf("recovery took %d vns, over its critical path's %d (the extents sum to %d)", span, limit, total)
			}
		})
	}
}

// priceRecovery re-runs on fresh threads what recovering the crashed store
// (zone and pool are its regions) reads before it rewrites headers: the
// ImmZone header walk, then each table's extents as rebuildAll cuts them, in
// the order recovery reads them and under the same partitions, so that every
// read meets the device's sequential-read tracker as recovery's will. It
// returns the walk's virtual cost, each extent's and the number of tables.
// The reads leave the tables' lines in the LLC.
func priceRecovery(t *testing.T, m *hw.Machine, opts Options, zone, poolRegion hw.Region) (walk int64, extents []int64, tables int) {
	t.Helper()
	e := &Engine{m: m, mem: new(memState)}
	part, err := m.Cache.Reserve(int(opts.PoolBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cache.Release(part)
	th := m.NewThread(0)
	var jobs []rebuildJob
	for addr := zone.Addr; ; {
		dataLen, count, _, ok := e.readImmHdr(th, zone, addr)
		if !ok {
			break
		}
		jobs = append(jobs, rebuildJob{base: addr + immZoneHdrSize, limit: dataLen, count: count, part: cache.DefaultPartition})
		addr = (addr + immZoneHdrSize + dataLen + immZoneAlign - 1) &^ (immZoneAlign - 1)
	}
	walk = th.Clock.Now()
	p, err := loadGeometry(m, poolRegion, part, m.Cores())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range p.slotList() {
		if count, tail, live := slotExtent(s); live && tail > 0 {
			jobs = append(jobs, rebuildJob{base: s.dataAddr(), limit: tail, count: count, part: part})
		}
	}
	var buf []byte
	for _, j := range jobs {
		buf = util.Sized(buf, int(j.limit))
		x := splitFlush(j.limit, m.Cores(), j.base)
		for k := range x.n {
			lo, hi := x.seam(k), x.seam(k+1)
			xth := m.NewThread(0)
			m.Cache.Read(xth.Clock, j.base+lo, buf[lo:hi], j.part)
			extents = append(extents, xth.Clock.Now())
		}
	}
	return walk, extents, len(jobs)
}

// The pool's geometry table is read back from media on recovery. A slot it
// places outside the pool region (recovery reads and later writes the slot's
// header line), or sizes below that line, and a slot count its 4 KiB cannot
// hold, fail the open with ErrCorrupt; the table as written recovers.
func TestRecoveryRejectsHostileGeometry(t *testing.T) {
	u32 := func(v uint64) []byte { return util.PutFixed32(nil, uint32(v)) }
	for _, tc := range []struct {
		name  string
		patch func(pool hw.Region) (at uint64, b []byte) // at: byte of the table to overwrite
		ok    bool
	}{
		{"as written", func(hw.Region) (uint64, []byte) { return 12, nil }, true},
		{"slot offset past the pool", func(r hw.Region) (uint64, []byte) { return 12, u32(r.Size) }, false},
		{"slot header line straddles the pool's end", func(r hw.Region) (uint64, []byte) { return 12, u32(r.Size - 8) }, false},
		{"slot inside the geometry table", func(hw.Region) (uint64, []byte) { return 12, u32(64) }, false},
		{"slot longer than the pool", func(r hw.Region) (uint64, []byte) { return 16, u32(r.Size) }, false},
		{"slot smaller than its header line", func(hw.Region) (uint64, []byte) { return 16, u32(8) }, false},
		{"no slots", func(hw.Region) (uint64, []byte) { return 8, u32(0) }, false},
		{"more slots than the table holds", func(hw.Region) (uint64, []byte) { return 8, u32(511) }, false},
		{"2^32-1 slots", func(hw.Region) (uint64, []byte) { return 8, u32(1<<32 - 1) }, false},
		{"bad magic", func(hw.Region) (uint64, []byte) { return 0, u32(7) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			opts := smallOpts()
			e, th := openEngine(t, m, opts)
			if err := e.Put(th, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			pool := e.pool.region
			crash(m, e)
			at, b := tc.patch(pool)
			m.PMem.StoreRaw(pool.Addr+at, b)
			m.Recover()
			th2 := m.NewThread(0)
			e2, err := newEngine(m, opts, shardEnv{}, th2)
			if !tc.ok {
				if !errors.Is(err, util.ErrCorrupt) {
					t.Fatalf("open over the patched geometry = %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer e2.Close(th2)
			if v, err := e2.Get(th2, []byte("k")); err != nil || string(v) != "v" {
				t.Fatalf("Get(k) after recovery = %q, %v", v, err)
			}
		})
	}
}

// FuzzRebuildList feeds recovery's table decoder arbitrary bytes as a table's
// data region under an arbitrary ImmZone header (count, dataLen) and an
// arbitrary sub-MemTable header (count, tail). Whatever the bytes, recovery
// gets a valid prefix of entries or nothing: no panic, no spin, no allocation
// larger than the region that holds the table, every indexed offset inside it.
func FuzzRebuildList(f *testing.F) {
	// A real flushed table, and the ways media tears one.
	opts := smallOpts()
	opts.SubMemTableBytes = 16 << 10
	seedM := testMachine()
	se, sth := openEngine(f, seedM, opts)
	fillFlushed(f, se, sth, 1, func(i int) []byte { return []byte(fmt.Sprintf("key%013d", i*7919%500)) }, make([]byte, 64))
	real := se.mem.imms[0]
	table := make([]byte, real.dataLen)
	seedM.PMem.LoadRaw(real.base, table)
	if err := se.Close(sth); err != nil {
		f.Fatal(err)
	}
	n := uint64(len(table))
	f.Add(table, real.count, n, n)
	f.Add(table[:n-16], real.count, n-16, n-16) // torn tail
	zeroLen := append([]byte(nil), table...)
	copy(zeroLen[2*align8(8+uint64(util.Fixed32(table))):], []byte{0, 0, 0, 0}) // third entry: blen 0
	f.Add(zeroLen, real.count, n, n)
	f.Add(table, uint64(1)<<60, n, n)                                       // inflated count
	f.Add(table, real.count, ^uint64(0)-immZoneHdrSize+1, uint64(tailMask)) // wrapped dataLen, tail past the slot
	f.Add([]byte{}, uint64(3), uint64(0), uint64(0))

	m := testMachine()
	zone := m.Alloc("fuzz.immzone", 64<<10, immZoneAlign)
	slotRegion := m.Alloc("fuzz.slot", 32<<10, 64)
	th := m.NewThread(0)
	f.Fuzz(func(t *testing.T, data []byte, count, dataLen, tail uint64) {
		e := &Engine{m: m, mem: new(memState)}

		// The ImmZone image: header, then the bytes, then zeroes to the zone's
		// end. The sub-MemTable image: the bytes, under a packed header whose
		// tail bounds the region.
		img := make([]byte, zone.Size)
		hdr := util.PutFixed64(img[:0], immHeaderMagic)
		hdr = util.PutFixed64(hdr, dataLen)
		util.PutFixed64(hdr, count)
		copy(img[immZoneHdrSize:], data)
		m.PMem.StoreRaw(zone.Addr, img)
		s := newSlot(0, slotRegion.Addr, slotRegion.Size)
		s.hdr.Store(packHdr(count, stateAllocated, tail))
		img = make([]byte, s.dataCap())
		copy(img, data)
		m.PMem.StoreRaw(s.dataAddr(), img)
		// The raw stores went behind the LLC: drop the lines the previous
		// input's reads left there, or recovery reads that input's bytes.
		m.Cache.Invalidate(zone.Addr, int(zone.Size))
		m.Cache.Invalidate(slotRegion.Addr, int(slotRegion.Size))

		// One rebuildAll for both tables, as recovery rebuilds a zone's tables
		// and the pool's slots through one snapshot buffer: the slot's table
		// decodes out of a buffer the zone's may have left longer and holding
		// its bytes.
		var jobs []rebuildJob
		if limit, cnt, _, ok := e.readImmHdr(th, zone, zone.Addr); ok {
			if limit > zone.Size-immZoneHdrSize {
				t.Fatalf("header dataLen %d accepted in a zone of %d", limit, zone.Size)
			}
			jobs = append(jobs, rebuildJob{base: zone.Addr + immZoneHdrSize, limit: limit, count: cnt, part: cache.DefaultPartition})
		}
		cnt, limit, live := slotExtent(s)
		if !live || limit > s.dataCap() {
			t.Fatalf("slotExtent = (%d, %d, %v) for a live slot of %d data bytes", cnt, limit, live, s.dataCap())
		}
		jobs = append(jobs, rebuildJob{base: s.dataAddr(), limit: limit, count: cnt, part: cache.DefaultPartition})
		e.rebuildAll(th, jobs)
		for _, j := range jobs {
			checkRebuilt(t, e, j)
		}
	})
}

// checkRebuilt holds the table rebuildAll rebuilt for job j to an independent
// walk of the job's bytes on media.
func checkRebuilt(t *testing.T, e *Engine, j rebuildJob) {
	t.Helper()
	base, limit, count := j.base, j.limit, j.count
	tb := j.t
	list, scanned, hiSeq := tb.list, tb.count, tb.maxSeq
	if tb.base != base || tb.dataLen != limit {
		t.Fatalf("a table of %d bytes at %#x for the %d bytes at %#x", tb.dataLen, tb.base, limit, base)
	}
	snap := make([]byte, limit)
	e.m.PMem.LoadRaw(base, snap)
	if scanned > count || scanned > limit/16+1 {
		t.Fatalf("recovered %d entries from %d bytes under a count of %d", scanned, limit, count)
	}
	// The recovered entries are the longest valid prefix, up to count.
	offsets := map[string]uint64{}
	var off, maxSeq uint64
	for i := uint64(0); i < scanned; i++ {
		if off >= limit {
			t.Fatalf("entry %d of %d starts at %d, past the region's %d bytes", i, scanned, off, limit)
		}
		ent, err := kvstore.ViewEntry(snap[off:])
		if err != nil {
			t.Fatalf("entry %d of %d at offset %d does not decode: %v", i, scanned, off, err)
		}
		offsets[string(ent.InternalKey(nil))] = off
		maxSeq = max(maxSeq, ent.Seq())
		off = align8(off + uint64(ent.Len))
	}
	if scanned < count && off < limit {
		if _, err := kvstore.ViewEntry(snap[off:]); err == nil {
			t.Fatalf("stopped after %d of %d entries with a valid entry at offset %d", scanned, count, off)
		}
	}
	if hiSeq != maxSeq || list.Len() != len(offsets) {
		t.Fatalf("hiSeq %d and %d list entries, want %d and %d", hiSeq, list.Len(), maxSeq, len(offsets))
	}
	it := list.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		if want, ok := offsets[string(it.Key())]; !ok || util.Fixed64(it.Value()) != want {
			t.Fatalf("list maps %q to offset %d, want %d (present %v)", it.Key(), util.Fixed64(it.Value()), want, ok)
		}
	}
}
