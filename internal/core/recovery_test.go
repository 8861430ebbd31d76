package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
	"time"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
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
	if n := len(e2.mem.imms); n != 1 {
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
// as in the ledger's crash-recover row. Reading each table once and merging
// the sub-skiplists costs about 90 vns per entry; a second read of each entry
// or a per-key search of a global skiplist took it to 300 (340 at the
// ledger's table count).
func TestRecoveryVirtualCost(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
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

	opts.Trace = obs.NewTrace(0)
	e2, th2 := crashAndReopen(t, e, opts)
	defer e2.Close(th2)
	var total int64
	for _, ev := range opts.Trace.Events() {
		switch ev.Type {
		case "recovery_start":
			total -= ev.VNs
		case "recovery_end":
			total += ev.VNs
		}
	}
	var entries uint64
	for _, tb := range e2.mem.imms {
		entries += tb.count
	}
	if len(e2.mem.imms) != 5 || entries != uint64(n) {
		t.Fatalf("recovered %d entries in %d tables, want %d in 5", entries, len(e2.mem.imms), n)
	}
	// Step 3 on its own: the same merge again, into an empty index sized the
	// way recovery sizes it, so it repeats to the line.
	th3 := m.NewThread(0)
	x := newHashIndex(seededHash, int(entries))
	e2.mergeInto(th3, x, e2.mem.imms)
	merge := th3.Clock.Now()
	if got := len(x.tab.Load().buckets); got != len(e2.mem.global.tab.Load().buckets) {
		t.Errorf("step 3 again ends with %d buckets, recovery's index %d", got, len(e2.mem.global.tab.Load().buckets))
	}

	perEntry := float64(total) / float64(entries)
	t.Logf("recovery: %d vns for %d entries = %.1f vns/entry; global-index rebuild %d vns (%.0f%%)",
		total, entries, perEntry, merge, 100*float64(merge)/float64(total))
	if perEntry > 150 {
		t.Errorf("recovery costs %.1f vns per entry, want at most 150", perEntry)
	}
	if merge*4 >= total {
		t.Errorf("rebuilding the global index is %d of recovery's %d vns, want under a quarter", merge, total)
	}
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
		e := &Engine{m: m, mem: newMemState(10)}

		// The ImmZone path: header, then the bytes, then zeroes to the zone's end.
		img := make([]byte, zone.Size)
		hdr := util.PutFixed64(img[:0], immHeaderMagic)
		hdr = util.PutFixed64(hdr, dataLen)
		util.PutFixed64(hdr, count)
		copy(img[immZoneHdrSize:], data)
		m.PMem.StoreRaw(zone.Addr, img)
		if limit, cnt, _, ok := e.readImmHdr(th, zone, zone.Addr); ok {
			if limit > zone.Size-immZoneHdrSize {
				t.Fatalf("header dataLen %d accepted in a zone of %d", limit, zone.Size)
			}
			checkRebuilt(t, e, th, zone.Addr+immZoneHdrSize, limit, cnt)
		}

		// The sub-MemTable path: the packed header's tail bounds the region.
		s := newSlot(0, slotRegion.Addr, slotRegion.Size)
		s.hdr.Store(packHdr(count, stateAllocated, tail))
		img = make([]byte, s.dataCap())
		copy(img, data)
		m.PMem.StoreRaw(s.dataAddr(), img)
		cnt, limit, live := slotExtent(s)
		if !live || limit > s.dataCap() {
			t.Fatalf("slotExtent = (%d, %d, %v) for a live slot of %d data bytes", cnt, limit, live, s.dataCap())
		}
		checkRebuilt(t, e, th, s.dataAddr(), limit, cnt)
	})
}

// checkRebuilt runs rebuildList over [base, base+limit) and holds the result
// to an independent walk of the same bytes.
func checkRebuilt(t *testing.T, e *Engine, th *hw.Thread, base, limit, count uint64) {
	t.Helper()
	snap, tb := e.rebuildList(th, base, limit, count)
	list, filter, scanned, hiSeq := tb.list, tb.filter, tb.count, tb.maxSeq
	if uint64(len(snap)) != limit || tb.base != base || tb.dataLen != limit {
		t.Fatalf("snapshot of %d bytes and a table of %d at %#x for the %d bytes at %#x", len(snap), tb.dataLen, tb.base, limit, base)
	}
	if scanned > count || scanned > limit/16+1 {
		t.Fatalf("recovered %d entries from %d bytes under a count of %d", scanned, limit, count)
	}
	if filter.SizeBytes() > int(limit)+64 {
		t.Fatalf("filter of %d bytes for a region of %d", filter.SizeBytes(), limit)
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
		if !filter.MayContain(ent.UKey) {
			t.Fatalf("recovered key %q is missing from the rebuilt filter", ent.UKey)
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
