package core

import (
	"fmt"
	"runtime"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// mallocs is the number of heap objects the process allocates while f runs;
// callers keep the engine's background threads idle meanwhile.
func mallocs(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

func skipAllocsUnderRace(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
}

// allocKey is the i-th 16-byte key of the allocation tests.
func allocKey(i int) []byte { return []byte(fmt.Sprintf("key%013d", i)) }

// quietOpts is smallOpts with the index thread kept out of the way: no write
// ever crosses the sync threshold, so a sub-skiplist is synced only when a
// test (or a Get) does it.
func quietOpts() Options {
	o := smallOpts()
	o.SyncThreshold = 1 << 30
	return o
}

// TestSyncSlotAllocs: indexing an entry costs no heap object of its own — the
// entry is read into the slot's buffer, viewed in place, and its key and
// offset are copied into the sub-skiplist's slabs (7 objects at the parent).
func TestSyncSlotAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	const n = 1000
	val := make([]byte, 64)
	for i := 0; i < n; i++ {
		if err := e.Put(th, allocKey(i*7919%n), val); err != nil {
			t.Fatal(err)
		}
	}
	s := e.pool.slotFor(th.Core)
	applied := 0
	got := mallocs(func() { applied = e.syncSlot(th, s) })
	if applied != n {
		t.Fatalf("syncSlot applied %d entries, want %d", applied, n)
	}
	if per := float64(got) / n; per > 0.1 {
		t.Errorf("syncSlot allocates %.3f objects per entry, want at most 0.1", per)
	}
	if s.listMaxSeq != e.seq.Load() {
		t.Errorf("listMaxSeq = %d after syncing everything written, want %d", s.listMaxSeq, e.seq.Load())
	}
}

// TestRebuildListAllocs: recovery pays one snapshot, one filter and one list
// per table, not objects per entry.
func TestRebuildListAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	o := quietOpts()
	o.SkiplistCompaction = false // or the index thread would be merging the table meanwhile
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)
	// In seeded random order: ascending keys would move the filter's max fence,
	// two objects a time, on every key (memfilter.fenceIn; ROADMAP item 11).
	fillFlushed(t, e, th, 1, func(i int) []byte { return allocKey(i * 7919 % 100003) }, make([]byte, 64))
	real := e.mem.imms[0]
	var rebuilt *immTable
	var snap []byte
	got := mallocs(func() { rebuilt = e.rebuildList(th, real.base, real.dataLen, real.count, &snap) })
	if rebuilt.count != real.count || rebuilt.maxSeq != real.maxSeq || rebuilt.list.Len() != real.list.Len() {
		t.Fatalf("rebuilt %d entries up to seq %d, the flushed table has %d up to %d",
			rebuilt.count, rebuilt.maxSeq, real.count, real.maxSeq)
	}
	if per := float64(got) / float64(real.count); per > 0.1 {
		t.Errorf("rebuildList allocates %.3f objects per entry (%d for %d), want at most 0.1", per, got, real.count)
	}
}

// TestGetAllocs: a Get served by the memory component allocates the value it
// returns and nothing else, wherever the key lives — an active sub-MemTable,
// a flushed table behind the active-key table, a flushed table searched on
// its own — so a key with an empty value allocates nothing, and neither does
// a Get that finds nothing, though it probes a populated table.
func TestGetAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	empty := []byte("key0000000000000+") // sorts among the flushed keys
	for _, compaction := range []bool{true, false} {
		o := quietOpts()
		o.SkiplistCompaction = compaction
		e, th := openEngine(t, testMachine(), o)
		if err := e.Put(th, empty, nil); err != nil {
			t.Fatal(err)
		}
		val := make([]byte, 64)
		flushed := fillFlushed(t, e, th, 1, allocKey, val)
		if got := liveSeqs(e, string(allocKey(0)), refRegistered); compaction != (len(got) > 0) {
			t.Fatalf("compaction=%v: the table holds the flushed key at sequences %v", compaction, got)
		}
		if v, err := e.Get(th, empty); err != nil || len(v) != 0 {
			t.Fatalf("Get(%s) = %q, %v; want the empty value", empty, v, err)
		}
		if n := testing.AllocsPerRun(200, func() { _, _ = e.Get(th, empty) }); n != 0 {
			t.Errorf("compaction=%v: a Get of a flushed key with an empty value allocates %.0f objects, want 0", compaction, n)
		}
		active := allocKey(flushed - 1) // the last burst went into a fresh slot
		for name, key := range map[string][]byte{"active slot": active, "flushed table": allocKey(0)} {
			if v, err := e.Get(th, key); err != nil || len(v) != len(val) { // also syncs the slot and grows the scratch
				t.Fatalf("%s: Get(%s) = %d bytes, %v", name, key, len(v), err)
			}
			if n := testing.AllocsPerRun(200, func() { _, _ = e.Get(th, key) }); n > 1 {
				t.Errorf("compaction=%v: a Get from the %s allocates %.0f objects, want at most 1", compaction, name, n)
			}
		}
		for _, key := range [][]byte{allocKey(1 << 40), []byte("a"), []byte("zzz"), []byte("key0000000000005+")} {
			if _, err := e.Get(th, key); err != kvstore.ErrNotFound {
				t.Fatalf("Get(%s) = %v, want ErrNotFound", key, err)
			}
			if n := testing.AllocsPerRun(200, func() { _, _ = e.Get(th, key) }); n != 0 {
				t.Errorf("compaction=%v: a Get of the absent %q allocates %.0f objects, want 0", compaction, key, n)
			}
		}
		if err := e.Close(th); err != nil {
			t.Fatal(err)
		}
	}
}

// sealActive moves every shard's active slots into its ImmZone, short of a
// spill, and waits until the flushes have landed.
func sealActive(th *hw.Thread, shards []*Engine) {
	for _, e := range shards {
		for core := range e.pool.coreSlot {
			if s := e.pool.sealForCore(th, core); s != nil {
				e.queueSealed(th.Clock.Now(), s)
			}
		}
		for e.pendingFlushes.Load() > 0 {
			runtime.Gosched()
		}
	}
}

// TestScanAllocs: once a Scan has run, the next one allocates nothing — on
// the plain engine and on the router — although its sources are an active
// slot, an ImmZone table, L0 files and an L1 level on every shard (about 23
// objects at the commit before the scan cursor was pooled).
func TestScanAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	m := testMachine()
	o := quietOpts()
	o.SkiplistCompaction = false
	e, th := openEngine(t, m, o)
	defer e.Close(th)
	so := smallShardedOpts(2)
	so.SyncThreshold, so.SkiplistCompaction = 1<<30, false
	sh, sth := openSharded(t, testMachine(), so)
	defer sh.Close(sth)

	val := make([]byte, 64)
	rows := 0
	count := func(k, v []byte) bool { rows++; return true } // allocated once, outside the measured runs
	for name, db := range map[string]struct {
		kvstore.DB
		th     *hw.Thread
		shards []*Engine
	}{"engine": {e, th, []*Engine{e}}, "2 shards": {sh, sth, sh.shards}} {
		put := func(from, to int) {
			for i := from; i < to; i++ {
				if err := db.Put(db.th, allocKey(i*7919%4001), val); err != nil { // 7919 generates Z/4001
					t.Fatal(err)
				}
			}
		}
		for r := 0; r < 6; r++ { // L0 files and L1 on every shard
			put(r*400, r*400+600)
			if err := db.FlushAll(db.th); err != nil {
				t.Fatal(err)
			}
		}
		put(2400, 3000)
		sealActive(db.th, db.shards)
		put(3000, 3400)
		for k, s := range db.shards {
			if len(s.mem.imms) == 0 || s.tree.NumFiles(0) == 0 || s.tree.NumFiles(1) == 0 {
				t.Fatalf("%s: shard %d has %d ImmZone tables, %d L0 and %d L1 files; the scan is meant to cross all of them",
					name, k, len(s.mem.imms), s.tree.NumFiles(0), s.tree.NumFiles(1))
			}
		}
		start := allocKey(1000)
		scan := func() {
			rows = 0
			if n, err := db.Scan(db.th, start, 50, count); err != nil || n != 50 || rows != 50 {
				t.Fatalf("%s: Scan = %d rows (callback %d), %v; want 50", name, n, rows, err)
			}
		}
		scan() // syncs the active slots and touches the blocks once; the next touch caches them
		scan()
		if n := testing.AllocsPerRun(100, scan); n != 0 {
			t.Errorf("%s: a 50-row Scan allocates %.1f objects, want 0", name, n)
		}
	}
}

// TestOwnershipScanCallback: the key and value a Scan hands its callback stay
// intact for the whole callback — even while the callback itself runs Gets on
// the same thread, which overwrite the thread's scratch, and a Scan, which
// takes a pooled cursor of its own — although the rows of
// a sub-MemTable or a flushed table are all read through one buffer per source
// that the next row reuses. Rows come from an active slot, a flushed table and
// the tree at once.
func TestOwnershipScanCallback(t *testing.T) {
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	val := func(i int) []byte { return []byte(fmt.Sprintf("value-%d-%d", i, i*i)) }
	put := func(from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := e.Put(th, allocKey(i*3%601), val(i*3%601)); err != nil { // 3 generates Z/601
				t.Fatal(err)
			}
		}
	}
	put(0, 200)
	if err := e.FlushAll(th); err != nil { // down to the tree
		t.Fatal(err)
	}
	put(200, 400)
	e.queueSealed(th.Clock.Now(), e.pool.sealForCore(th, th.Core)) // into the ImmZone, short of a spill
	for e.pendingFlushes.Load() > 0 {
		runtime.Gosched()
	}
	put(400, 601)
	if len(e.mem.imms) != 1 || e.tree.NumFiles(0) == 0 {
		t.Fatalf("%d flushed tables and %d L0 files; the scan is meant to cross all three layers", len(e.mem.imms), e.tree.NumFiles(0))
	}

	rows := 0
	n, err := e.Scan(th, nil, 0, func(key, value []byte) bool {
		k, v := string(key), string(value)
		if k != string(allocKey(rows)) || v != string(val(rows)) {
			t.Fatalf("row %d is %s=%s, want %s=%s", rows, k, v, allocKey(rows), val(rows))
		}
		for _, other := range []int{rows / 2, 600 - rows/2} {
			if got, err := e.Get(th, allocKey(other)); err != nil || string(got) != string(val(other)) {
				t.Fatalf("Get(%s) inside the callback = %q, %v", allocKey(other), got, err)
			}
		}
		// A Scan inside the callback, on the same thread, walks sources of its
		// own: the outer row's bytes stay where they are.
		inner := 600 - rows
		if n, err := e.Scan(th, allocKey(inner), 3, func(key, value []byte) bool {
			if string(key) != string(allocKey(inner)) || string(value) != string(val(inner)) {
				t.Fatalf("nested scan row is %s=%s, want %s=%s", key, value, allocKey(inner), val(inner))
			}
			inner++
			return true
		}); err != nil || n != min(3, rows+1) {
			t.Fatalf("nested Scan inside row %d visited %d rows, err %v", rows, n, err)
		}
		if string(key) != k || string(value) != v {
			t.Fatalf("row %d changed under the callback: now %s=%s, was %s=%s", rows, key, value, k, v)
		}
		rows++
		return true
	})
	if err != nil || n != 601 || rows != 601 {
		t.Fatalf("Scan visited %d rows (callback %d), err %v; want 601", n, rows, err)
	}
}
