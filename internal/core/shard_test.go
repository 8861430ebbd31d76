package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

func smallShardedOpts(shards int) Options {
	o := DefaultOptions()
	o.Shards = shards
	o.PoolBytes = 1 << 20 // total, split across shards
	o.SubMemTableBytes = 128 << 10
	o.ImmZoneBytes = 4 << 20
	o.FSBytes = 64 << 20
	return o
}

func openSharded(t *testing.T, m *hw.Machine, so Options) (*Sharded, *hw.Thread) {
	t.Helper()
	th := m.NewThread(0)
	sh, err := newSharded(m, so, th)
	if err != nil {
		t.Fatal(err)
	}
	return sh, th
}

func TestShardedPutGetDeleteScan(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)

	n := 3000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if err := sh.Put(th, k, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := sh.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q", k, v)
		}
	}
	if _, err := sh.Get(th, []byte("absent")); err != kvstore.ErrNotFound {
		t.Fatalf("absent key: %v", err)
	}

	// Scan merges the shards back into one ordered keyspace.
	var last string
	seen := 0
	if _, err := sh.Scan(th, nil, n+10, func(k, v []byte) bool {
		if string(k) <= last {
			t.Fatalf("scan out of order: %q after %q", k, last)
		}
		last = string(k)
		seen++
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if seen != n {
		t.Fatalf("scan saw %d of %d keys", seen, n)
	}

	if err := sh.Delete(th, []byte("key000042")); err != nil {
		t.Fatal(err)
	}
	if _, err := sh.Get(th, []byte("key000042")); err != kvstore.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
}

func TestShardRoutingStable(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("route%d", i))
		want := int(util.Hash64(k) % 4)
		if got := sh.ShardOf(k); got != want {
			t.Fatalf("ShardOf(%s) = %d, want %d", k, got, want)
		}
		if got := sh.ShardOf(k); got != want {
			t.Fatalf("ShardOf(%s) unstable", k)
		}
	}
}

// TestShardedConcurrentWriters: eight writers, one thread each on core w,
// put disjoint keys through the router at once, every shard taking writes
// from several cores; every key then reads back its value.
func TestShardedConcurrentWriters(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)

	const writers, per = 8, 400
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < per; i++ {
				k := []byte(fmt.Sprintf("w%d-key%05d", w, i))
				if err := sh.Put(wth, k, []byte(fmt.Sprintf("w%d-v%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for w := 0; w < writers; w++ {
		for i := 0; i < per; i++ {
			k := []byte(fmt.Sprintf("w%d-key%05d", w, i))
			v, err := sh.Get(th, k)
			if err != nil {
				t.Fatalf("Get(%s): %v", k, err)
			}
			if string(v) != fmt.Sprintf("w%d-v%d", w, i) {
				t.Fatalf("Get(%s) = %q", k, v)
			}
		}
	}
}

// TestShardedWritesUseTheCallersSlot: a router's write lands in the writing
// session's own core's sub-MemTable of the key's shard, as on the single
// engine — two sessions writing one shard's keys each hold a slot of it.
func TestShardedWritesUseTheCallersSlot(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(2))
	defer sh.Close(th)
	const target = 1
	for core := 0; core < 2; core++ {
		wth := m.NewThread(core)
		for i, n := 0, 0; n < 50; i++ {
			k := []byte(fmt.Sprintf("c%d-key%d", core, i))
			if sh.ShardOf(k) != target {
				continue
			}
			if err := sh.Put(wth, k, []byte("v")); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	for core := 0; core < 2; core++ {
		if idx := sh.shards[target].pool.coreSlot[core].Load(); idx < 0 {
			t.Errorf("core %d wrote 50 keys of shard %d but holds none of its slots", core, target)
		}
	}
}

func crashAndReopenSharded(t *testing.T, dead *Sharded, so Options) (*Sharded, *hw.Thread) {
	t.Helper()
	m := dead.m
	crash(m, dead)
	m.Recover()
	th := m.NewThread(0)
	sh, err := newSharded(m, so, th)
	if err != nil {
		t.Fatal(err)
	}
	return sh, th
}

func TestShardedCrashRecovery(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)
	n := 2000
	for i := 0; i < n; i++ {
		if err := sh.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	sh2, th2 := crashAndReopenSharded(t, sh, so)
	defer sh2.Close(th2)
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := sh2.Get(th2, k)
		if err != nil {
			t.Fatalf("lost %s across eADR crash: %v", k, err)
		}
		if string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("recovered %s = %q", k, v)
		}
	}
	// New writes after recovery must take fresh sequence numbers.
	if err := sh2.Put(th2, []byte("post-crash"), []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if v, _ := sh2.Get(th2, []byte("post-crash")); string(v) != "ok" {
		t.Fatalf("post-crash write lost")
	}
}

func TestShardedCrossShardBatchCommitAndRecovery(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)

	// Build batches guaranteed to span at least two shards.
	nBatches := 50
	for b := 0; b < nBatches; b++ {
		var batch Batch
		shardsHit := map[int]bool{}
		for j := 0; j < 6; j++ {
			k := []byte(fmt.Sprintf("xb%03d-%d", b, j))
			shardsHit[sh.ShardOf(k)] = true
			batch.Put(k, []byte(fmt.Sprintf("xv%d-%d", b, j)))
		}
		if len(shardsHit) < 2 {
			t.Fatalf("test batch %d does not span shards", b)
		}
		if err := sh.Write(th, &batch, 0); err != nil {
			t.Fatal(err)
		}
	}
	if cross := sh.crossBatches.Load(); cross != int64(nBatches) {
		t.Fatalf("cross-shard batch count %d, want %d", cross, nBatches)
	}

	sh2, th2 := crashAndReopenSharded(t, sh, so)
	defer sh2.Close(th2)
	for b := 0; b < nBatches; b++ {
		for j := 0; j < 6; j++ {
			k := []byte(fmt.Sprintf("xb%03d-%d", b, j))
			v, err := sh2.Get(th2, k)
			if err != nil {
				t.Fatalf("batch %d key %s missing after recovery: %v", b, k, err)
			}
			if string(v) != fmt.Sprintf("xv%d-%d", b, j) {
				t.Fatalf("batch %d key %s = %q after recovery", b, k, v)
			}
		}
	}
}

// logOnly appends the record of a batch putting kvs (key, value, ...) to
// sh's batch log without applying it, as if the power failed right after the
// record's fence, and returns the record's extent in the log.
func logOnly(t *testing.T, sh *Sharded, th *hw.Thread, kvs ...string) (start, end uint64) {
	t.Helper()
	var b Batch
	for i := 0; i+1 < len(kvs); i += 2 {
		b.Put([]byte(kvs[i]), []byte(kvs[i+1]))
	}
	assignSeqs(sh.seq, b.ops)
	l := sh.log
	start, err := l.w.Append(th, appendBatch(nil, l.nextID, sh.portions(b.ops)))
	if err != nil {
		t.Fatal(err)
	}
	l.nextID++
	return start, l.w.Offset()
}

// tearLastLine zeroes the bytes of the log extent [start, end) that sit in
// its last cache line, as if that line never reached the media.
func tearLastLine(sh *Sharded, th *hw.Thread, start, end uint64) {
	base := sh.log.rg.Addr
	addr := max(base+start, (base+end-1)&^63)
	sh.m.Cache.NTWrite(th.Clock, addr, make([]byte, base+end-addr))
}

// expectBatch checks that every key of kvs reads its value (visible) or reads
// as absent (!visible).
func expectBatch(t *testing.T, sh *Sharded, th *hw.Thread, visible bool, kvs ...string) {
	t.Helper()
	for i := 0; i+1 < len(kvs); i += 2 {
		v, err := sh.Get(th, []byte(kvs[i]))
		switch {
		case visible && (err != nil || string(v) != kvs[i+1]):
			t.Errorf("Get(%s) = %.32q, %v; want %.32q", kvs[i], v, err, kvs[i+1])
		case !visible && err != kvstore.ErrNotFound:
			t.Errorf("Get(%s) = %.32q, %v; want ErrNotFound", kvs[i], v, err)
		}
	}
}

// A batch whose record lost its last line to the power failure never
// committed: it stays invisible, while the intact record before it replays
// whole. Neither batch reached a sub-MemTable, so what the reopened router
// reads of them came from the log alone.
func TestShardedTornBatchRecordInvisible(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)
	a := []string{"whole-a", "1", "whole-b", "2", "whole-c", "3", "whole-d", "4"}
	b := []string{"torn-a", "5", "torn-b", "6", "torn-c", "7", "torn-d", "8"}
	for _, kvs := range [][]string{a, b} {
		var batch Batch
		for i := 0; i < len(kvs); i += 2 {
			batch.Put([]byte(kvs[i]), nil)
		}
		if len(sh.portions(batch.ops)) < 2 {
			t.Fatalf("batch %v does not span shards", kvs)
		}
	}
	logOnly(t, sh, th, a...)
	start, end := logOnly(t, sh, th, b...)
	tearLastLine(sh, th, start, end)

	sh2, th2 := crashAndReopenSharded(t, sh, so)
	expectBatch(t, sh2, th2, true, a...)
	expectBatch(t, sh2, th2, false, b...)

	// The reopened log takes new batches, and a second power failure keeps
	// the replayed one.
	c := []string{"after-a", "9", "after-b", "10", "after-c", "11"}
	var batch Batch
	for i := 0; i < len(c); i += 2 {
		batch.Put([]byte(c[i]), []byte(c[i+1]))
	}
	if err := sh2.Write(th2, &batch, 0); err != nil {
		t.Fatal(err)
	}
	sh3, th3 := crashAndReopenSharded(t, sh2, so)
	defer sh3.Close(th3)
	expectBatch(t, sh3, th3, true, a...)
	expectBatch(t, sh3, th3, true, c...)
	expectBatch(t, sh3, th3, false, b...)
}

// A record that straddles a 32 KiB wal block is framed as a FIRST chunk and a
// LAST chunk: it replays whole, and not at all once its LAST chunk is torn.
func TestShardedBatchRecordAcrossWALBlock(t *testing.T) {
	for _, torn := range []bool{false, true} {
		t.Run(fmt.Sprintf("torn=%v", torn), func(t *testing.T) {
			m := testMachine()
			so := smallShardedOpts(4)
			sh, th := openSharded(t, m, so)
			// One filler record and its 7-byte chunk header leave 200 bytes
			// of the first block.
			filler := fillerBatch(sh, "fill", wal.BlockSize-200-7)
			if _, end := logOnly(t, sh, th, filler...); end != wal.BlockSize-200 {
				t.Fatalf("filler ends at %d, want %d", end, wal.BlockSize-200)
			}
			var kvs []string
			for i := 0; i < 6; i++ {
				kvs = append(kvs, fmt.Sprintf("straddle-%d", i), fmt.Sprintf("%0300d", i))
			}
			start, end := logOnly(t, sh, th, kvs...)
			if start >= wal.BlockSize || end <= wal.BlockSize+7 {
				t.Fatalf("record [%d, %d) does not straddle the block at %d", start, end, wal.BlockSize)
			}
			if torn {
				tearLastLine(sh, th, wal.BlockSize, end)
			}
			sh2, th2 := crashAndReopenSharded(t, sh, so)
			defer sh2.Close(th2)
			expectBatch(t, sh2, th2, true, filler...)
			expectBatch(t, sh2, th2, !torn, kvs...)
		})
	}
}

func TestShardedCrossShardBatchTooLarge(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)

	var batch Batch
	big := make([]byte, 70<<10) // exceeds the minimum 64 KiB slot
	// Two keys on different shards so the cross-shard path (with its capacity
	// pre-check) is taken.
	k1, k2 := findKeysOnDistinctShards(sh)
	batch.Put(k1, big)
	batch.Put(k2, []byte("small"))
	if err := sh.Write(th, &batch, 0); err != errBatchTooLarge {
		t.Fatalf("oversized cross-shard batch: got %v, want errBatchTooLarge", err)
	}
}

// fillerBatch is a batch of key and a second key on another shard of sh
// whose record is n bytes long.
func fillerBatch(sh *Sharded, key string, n int) []string {
	other := key + "-0"
	for i := 1; sh.ShardOf([]byte(other)) == sh.ShardOf([]byte(key)); i++ {
		other = fmt.Sprintf("%s-%d", key, i)
	}
	fixed := 13 + 2*(8+17) + len(key) + len(other) + 1
	return []string{key, strings.Repeat("f", n-fixed), other, "o"}
}

// blockFiller is a batch whose record fills a wal block exactly (with its
// 7-byte chunk header), so the record after it starts the next block.
func blockFiller(sh *Sharded, key string) []string {
	return fillerBatch(sh, key, wal.BlockSize-7)
}

// A reset zeroes only the head block, so the records of the blocks after it
// stay intact past the new tail. Replay stops at the first of them: batch ids
// only grow, and theirs are older than the record before them.
func TestShardedResetLeftoversDoNotReplay(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)
	var old [][]string
	for i := 0; sh.log.w.Offset() <= sh.log.rg.Size/2; i++ {
		old = append(old, blockFiller(sh, fmt.Sprintf("old-%d", i)))
		logOnly(t, sh, th, old[i]...)
	}
	sh.log.mu.Lock()
	sh.log.maybeResetLocked(th)
	sh.log.mu.Unlock()
	if off := sh.log.w.Offset(); off != 0 {
		t.Fatalf("log at %d after the reset, want 0", off)
	}
	fresh := blockFiller(sh, "fresh")
	logOnly(t, sh, th, fresh...)

	sh2, th2 := crashAndReopenSharded(t, sh, so)
	defer sh2.Close(th2)
	expectBatch(t, sh2, th2, true, fresh...)
	for _, kvs := range old {
		expectBatch(t, sh2, th2, false, kvs...)
	}
}

// Every open of an existing log clears all of it, not just the head block:
// batch ids restart above the replayed prefix, so a record left past that
// prefix would otherwise replay behind the next run's records. Here a torn first
// record hides an intact one in the second block; the next run writes one
// record of the same length, and only that one may replay.
func TestShardedReopenClearsLeftoverRecords(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)
	first := blockFiller(sh, "fill-0")
	start, end := logOnly(t, sh, th, first...)
	if end != wal.BlockSize {
		t.Fatalf("filler ends at %d, want %d", end, wal.BlockSize)
	}
	leftover := []string{"left-a", "1", "left-b", "2", "left-c", "3", "left-d", "4"}
	logOnly(t, sh, th, leftover...)
	tearLastLine(sh, th, start, end)

	sh2, th2 := crashAndReopenSharded(t, sh, so)
	expectBatch(t, sh2, th2, false, first...)
	expectBatch(t, sh2, th2, false, leftover...)
	second := blockFiller(sh2, "fill-1")
	logOnly(t, sh2, th2, second...)

	sh3, th3 := crashAndReopenSharded(t, sh2, so)
	defer sh3.Close(th3)
	expectBatch(t, sh3, th3, true, second...)
	expectBatch(t, sh3, th3, false, leftover...)
}

// A batch whose portions each fit a minimum-size slot but whose record would
// not fit in the half of the batch log free at every append is refused before
// anything is written: the log offset does not move and no key is visible.
// Half as many portions of the same size commit.
func TestShardedCrossShardBatchTooLargeForLog(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(8))
	defer sh.Close(th)

	keys := shardKeys(sh, "big")
	value := make([]byte, 56<<10)
	var all, half Batch
	for s, k := range keys {
		all.Put(k, value)
		if s%2 == 0 {
			half.Put(k, value)
		}
	}
	before := sh.log.w.Offset()
	if err := sh.Write(th, &all, 0); err != errBatchTooLarge {
		t.Fatalf("eight 56 KiB portions: got %v, want errBatchTooLarge", err)
	}
	if after := sh.log.w.Offset(); after != before {
		t.Fatalf("refused batch moved the log offset %d -> %d", before, after)
	}
	for _, k := range keys {
		if _, err := sh.Get(th, k); err != kvstore.ErrNotFound {
			t.Fatalf("Get(%s) after the refused batch = %v, want ErrNotFound", k, err)
		}
	}
	if err := sh.Write(th, &half, 0); err != nil {
		t.Fatalf("four 56 KiB portions: %v", err)
	}
}

// shardKeys returns one key per shard of sh: keys[k] routes to shard k.
func shardKeys(sh *Sharded, prefix string) [][]byte {
	keys := make([][]byte, len(sh.shards))
	for i, found := 0, 0; found < len(keys); i++ {
		k := []byte(fmt.Sprintf("%s-%d", prefix, i))
		if s := sh.ShardOf(k); keys[s] == nil {
			keys[s], found = k, found+1
		}
	}
	return keys
}

// Two cross-shard batches of the largest record the log takes fill it past
// its Stop bound. The second resets it once applied and every shard re-reads
// the log, so on a store with a stall deadline the full log stalls no write
// once both batches are in: a deadline Put on every shard still lands, also
// after each shard's next lifecycle event re-reads the signals.
func TestShardedFullBatchLogDoesNotStall(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(8)
	so.WriteStallDeadline = 1_000_000
	sh, th := openSharded(t, m, so)
	defer sh.Close(th)

	keys := shardKeys(sh, "max")
	for round := range 2 {
		var b Batch
		for _, k := range keys {
			b.Put(k, nil)
		}
		// Grow the values until the record is exactly the largest allowed.
		room := maxBatchRecord - recordLen(sh.portions(b.ops))
		for i := range b.ops {
			n := room / (len(b.ops) - i)
			b.ops[i].value = make([]byte, n)
			room -= n
		}
		if n := recordLen(sh.portions(b.ops)); n != maxBatchRecord {
			t.Fatalf("record is %d bytes, want %d", n, maxBatchRecord)
		}
		if err := sh.Write(th, &b, so.WriteStallDeadline); err != nil {
			t.Fatalf("batch %d: %v", round, err)
		}
	}
	if got := sh.log.bytes.Load(); got > batchLogBytes/2 {
		t.Fatalf("batch log rests at %d bytes after both batches, want <= %d", got, batchLogBytes/2)
	}
	// A seal during the second batch's apply read the full log: some shard
	// went to Stop, and the reset must have brought it back.
	var stops int64
	for _, e := range sh.shards {
		stops += e.flow.stopEntries.Load()
	}
	if stops == 0 {
		t.Fatal("no shard entered Stop while the log was full; the test no longer covers the reset's re-read")
	}
	for pass, event := range []bool{false, true} {
		for k, e := range sh.shards {
			if event {
				e.flow.recompute(th.Clock.Now(), "test")
			}
			if err := sh.Put(th, keys[k], []byte("after")); err != nil {
				t.Fatalf("pass %d: deadline Put on shard %d: %v (flow %v)", pass, k, err, e.flow.current())
			}
		}
	}
}

func findKeysOnDistinctShards(sh *Sharded) ([]byte, []byte) {
	k1 := []byte("probe-0")
	for i := 1; ; i++ {
		k2 := []byte(fmt.Sprintf("probe-%d", i))
		if sh.ShardOf(k2) != sh.ShardOf(k1) {
			return k1, k2
		}
	}
}

func TestShardedSingleShardParity(t *testing.T) {
	// Shards=1 through the router must agree with the plain engine on
	// contents and visibility rules.
	mPlain := testMachine()
	opts := smallOpts()
	e, eth := openEngine(t, mPlain, opts)
	defer e.Close(eth)

	mShard := testMachine()
	so := opts
	so.Shards = 1
	sh, sth := openSharded(t, mShard, so)
	defer sh.Close(sth)

	for i := 0; i < 1500; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		v := []byte(fmt.Sprintf("v%d", i))
		if err := e.Put(eth, k, v); err != nil {
			t.Fatal(err)
		}
		if err := sh.Put(sth, k, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1500; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		ev, eerr := e.Get(eth, k)
		sv, serr := sh.Get(sth, k)
		if (eerr == nil) != (serr == nil) || string(ev) != string(sv) {
			t.Fatalf("divergence at %s: plain (%q,%v) sharded (%q,%v)", k, ev, eerr, sv, serr)
		}
	}
}
