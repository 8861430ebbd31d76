package core

import (
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
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

func TestShardedInDoubtBatchDiscarded(t *testing.T) {
	m := testMachine()
	so := smallShardedOpts(4)
	sh, th := openSharded(t, m, so)

	// A prepare record with no commit marker: the batch must stay invisible.
	p := &shardPortion{shard: 1}
	p.ops = append(p.ops, batchOp{key: []byte("indoubt-key"), value: []byte("x"), kind: util.KindValue, seq: sh.seq.Add(1)})
	if _, err := sh.tpc.prepare[1].Append(th, encodePrepare(777, p)); err != nil {
		t.Fatal(err)
	}

	// And a fully committed batch that must survive.
	var batch Batch
	batch.Put([]byte("committed-a"), []byte("1"))
	batch.Put([]byte("committed-b"), []byte("2"))
	batch.Put([]byte("committed-c"), []byte("3"))
	if err := sh.Write(th, &batch, 0); err != nil {
		t.Fatal(err)
	}

	sh2, th2 := crashAndReopenSharded(t, sh, so)
	defer sh2.Close(th2)
	if _, err := sh2.Get(th2, []byte("indoubt-key")); err != kvstore.ErrNotFound {
		t.Fatalf("in-doubt prepare became visible: %v", err)
	}
	for _, k := range []string{"committed-a", "committed-b", "committed-c"} {
		if _, err := sh2.Get(th2, []byte(k)); err != nil {
			t.Fatalf("committed key %s lost: %v", k, err)
		}
	}
}

func TestShardedCrossShardBatchTooLarge(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)

	var batch Batch
	big := make([]byte, 70<<10) // exceeds the minimum 64 KiB slot
	// Two keys on different shards so the two-phase path (with its capacity
	// pre-check) is taken.
	k1, k2 := findKeysOnDistinctShards(sh)
	batch.Put(k1, big)
	batch.Put(k2, []byte("small"))
	if err := sh.Write(th, &batch, 0); err != errBatchTooLarge {
		t.Fatalf("oversized cross-shard batch: got %v, want errBatchTooLarge", err)
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
