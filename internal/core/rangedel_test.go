package core

import (
	"fmt"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
)

func putN(t *testing.T, e *Engine, th *hw.Thread, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if err := e.Put(th, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

// rangeDel is a batch of one range tombstone over [start, end): the public
// path to a range delete is Write with such a batch.
func rangeDel(start, end []byte) *Batch {
	var b Batch
	b.DeleteRange(start, end)
	return &b
}

func TestDeleteRangeBasic(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	putN(t, e, th, 100, "v")
	if err := e.Write(th, rangeDel([]byte("key00020"), []byte("key00060")), e.opts.WriteStallDeadline); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, err := e.Get(th, k)
		covered := i >= 20 && i < 60
		if covered && err != kvstore.ErrNotFound {
			t.Fatalf("covered %s: got %q, %v", k, v, err)
		}
		if !covered && err != nil {
			t.Fatalf("uncovered %s: %v", k, err)
		}
	}
	// A write after the tombstone is newer and visible again.
	if err := e.Put(th, []byte("key00030"), []byte("reborn")); err != nil {
		t.Fatal(err)
	}
	if v, err := e.Get(th, []byte("key00030")); err != nil || string(v) != "reborn" {
		t.Fatalf("rewrite after DeleteRange: %q, %v", v, err)
	}
	// Scan suppresses exactly the covered keys.
	var seen []string
	if _, err := e.Scan(th, nil, 0, func(k, v []byte) bool {
		seen = append(seen, string(k))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	want := 100 - 40 + 1 // 40 covered, key00030 rewritten
	if len(seen) != want {
		t.Fatalf("scan saw %d keys, want %d (%v...)", len(seen), want, seen[:5])
	}
	if e.stats.RangeDeletes.Load() != 1 {
		t.Fatalf("RangeDeletes = %d", e.stats.RangeDeletes.Load())
	}
	// Empty and inverted ranges are no-ops.
	if err := e.Write(th, rangeDel([]byte("z"), []byte("a")), e.opts.WriteStallDeadline); err != nil {
		t.Fatal(err)
	}
	if e.stats.RangeDeletes.Load() != 1 {
		t.Fatal("inverted range counted")
	}
}

func TestDeleteRangeAcrossSpill(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	putN(t, e, th, 200, "v")
	if err := e.Write(th, rangeDel([]byte("key00050"), []byte("key00150")), e.opts.WriteStallDeadline); err != nil {
		t.Fatal(err)
	}
	// Push everything — including the tombstone — down into the LSM tree.
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i += 7 {
		k := []byte(fmt.Sprintf("key%05d", i))
		_, err := e.Get(th, k)
		covered := i >= 50 && i < 150
		if covered && err != kvstore.ErrNotFound {
			t.Fatalf("covered %s visible after spill: %v", k, err)
		}
		if !covered && err != nil {
			t.Fatalf("uncovered %s lost after spill: %v", k, err)
		}
	}
	var n int
	if _, err := e.Scan(th, nil, 0, func(k, v []byte) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != 100 {
		t.Fatalf("scan after spill saw %d keys, want 100", n)
	}
}

func TestDeleteRangeRecovery(t *testing.T) {
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	putN(t, e, th, 100, "v")
	if err := e.Write(th, rangeDel([]byte("key00010"), []byte("key00030")), e.opts.WriteStallDeadline); err != nil {
		t.Fatal(err)
	}
	// No FlushAll: the tombstone lives only in the persistent memtable, and
	// recovery must rebuild the DRAM coverage list from it.
	e2, th2 := crashAndReopen(t, e, opts)
	defer e2.Close(th2)
	for i := 0; i < 100; i += 3 {
		k := []byte(fmt.Sprintf("key%05d", i))
		_, err := e2.Get(th2, k)
		covered := i >= 10 && i < 30
		if covered && err != kvstore.ErrNotFound {
			t.Fatalf("covered %s visible after recovery: %v", k, err)
		}
		if !covered && err != nil {
			t.Fatalf("uncovered %s lost after recovery: %v", k, err)
		}
	}
}

func TestBatchDeleteRangeAtomic(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	putN(t, e, th, 50, "v")
	var b Batch
	b.Put([]byte("marker"), []byte("present"))
	b.DeleteRange([]byte("key00000"), []byte("key00025"))
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	if v, err := e.Get(th, []byte("marker")); err != nil || string(v) != "present" {
		t.Fatalf("batch put lost: %q, %v", v, err)
	}
	if _, err := e.Get(th, []byte("key00010")); err != kvstore.ErrNotFound {
		t.Fatalf("batch range delete not applied: %v", err)
	}
	if _, err := e.Get(th, []byte("key00030")); err != nil {
		t.Fatalf("key outside batch tombstone lost: %v", err)
	}
	if e.stats.RangeDeletes.Load() != 1 {
		t.Fatalf("RangeDeletes = %d", e.stats.RangeDeletes.Load())
	}
}

func ingestEntries(start, n int, tag string) []lsm.IngestEntry {
	var es []lsm.IngestEntry
	for i := 0; i < n; i++ {
		es = append(es, lsm.IngestEntry{
			Key:   []byte(fmt.Sprintf("key%05d", start+i)),
			Value: []byte(fmt.Sprintf("%s-%d", tag, start+i)),
		})
	}
	return es
}

func TestEngineIngest(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	// Pre-existing versions the ingest must shadow.
	putN(t, e, th, 20, "old")
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if err := e.Ingest(th, ingestEntries(0, 40, "ing")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i += 3 {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, err := e.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if want := fmt.Sprintf("ing-%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
	// A put after the ingest is newer still.
	if err := e.Put(th, []byte("key00005"), []byte("newest")); err != nil {
		t.Fatal(err)
	}
	if v, _ := e.Get(th, []byte("key00005")); string(v) != "newest" {
		t.Fatalf("post-ingest put shadowed: %q", v)
	}
	if e.stats.Ingests.Load() != 1 {
		t.Fatalf("Ingests = %d", e.stats.Ingests.Load())
	}
	// Unsorted input is rejected whole.
	bad := []lsm.IngestEntry{{Key: []byte("b")}, {Key: []byte("a")}}
	if err := e.Ingest(th, bad); err == nil {
		t.Fatal("unsorted ingest accepted")
	}
	if _, err := e.Get(th, []byte("b")); err != kvstore.ErrNotFound {
		t.Fatalf("rejected ingest leaked a key: %v", err)
	}
}

func TestCompactionWorkersEndToEnd(t *testing.T) {
	opts := smallOpts()
	opts.CompactionWorkers = 2
	opts.LSM = lsm.Options{
		L0CompactionTrigger: 2,
		BaseLevelBytes:      64 << 10,
		LevelMultiplier:     4,
		MaxLevels:           5,
		TableFileSize:       16 << 10,
	}
	e, th := openEngine(t, testMachine(), opts)
	n := 3000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if err := e.Put(th, k, []byte(fmt.Sprintf("v-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if jobs, _ := e.compactServer.Stats(); jobs == 0 {
		t.Fatal("background scheduler ran no jobs despite spills")
	}
	if debt := e.tree.CompactionDebt(); debt != 0 {
		t.Fatalf("FlushAll returned with %d bytes of compaction debt", debt)
	}
	for i := 0; i < n; i += 13 {
		k := []byte(fmt.Sprintf("key%06d", i))
		v, err := e.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s): %v", k, err)
		}
		if string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("Get(%s) = %q", k, v)
		}
	}
	if err := e.Close(th); err != nil {
		t.Fatal(err)
	}
}

func TestShardedDeleteRangeAndIngest(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)
	n := 400
	for i := 0; i < n; i++ {
		if err := sh.Put(th, []byte(fmt.Sprintf("key%05d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	// The range spans keys hashed onto every shard; the tombstone must reach
	// all of them atomically.
	if err := sh.Write(th, rangeDel([]byte("key00100"), []byte("key00300")), sh.writeDeadline); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += 7 {
		k := []byte(fmt.Sprintf("key%05d", i))
		_, err := sh.Get(th, k)
		covered := i >= 100 && i < 300
		if covered && err != kvstore.ErrNotFound {
			t.Fatalf("covered %s visible: %v", k, err)
		}
		if !covered && err != nil {
			t.Fatalf("uncovered %s lost: %v", k, err)
		}
	}
	var got int
	if _, err := sh.Scan(th, nil, 0, func(k, v []byte) bool { got++; return true }); err != nil {
		t.Fatal(err)
	}
	if got != n-200 {
		t.Fatalf("sharded scan saw %d keys, want %d", got, n-200)
	}
	// Ingest routes each entry to its owning shard; the batch shadows the
	// tombstone because its sequence is newer.
	if err := sh.Ingest(th, ingestEntries(100, 50, "ing")); err != nil {
		t.Fatal(err)
	}
	for i := 100; i < 150; i += 5 {
		k := []byte(fmt.Sprintf("key%05d", i))
		v, err := sh.Get(th, k)
		if err != nil {
			t.Fatalf("Get(%s) after sharded ingest: %v", k, err)
		}
		if want := fmt.Sprintf("ing-%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
}
