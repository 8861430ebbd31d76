package lsm

import (
	"fmt"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/pmemfs"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// memIter adapts a skiplist holding internal keys to the lsm.Iterator
// interface — the same adapter the engines use for memtable flushes.
type memIter struct{ it *skiplist.Iterator }

func newMemIter(l *skiplist.List) *memIter  { return &memIter{it: l.NewIterator()} }
func (m *memIter) Valid() bool              { return m.it.Valid() }
func (m *memIter) SeekToFirst()             { m.it.SeekToFirst() }
func (m *memIter) Seek(ik util.InternalKey) { m.it.Seek(ik, nil) }
func (m *memIter) Next()                    { m.it.Next() }
func (m *memIter) Key() util.InternalKey    { return util.InternalKey(m.it.Key()) }
func (m *memIter) Value() []byte            { return m.it.Value() }
func (m *memIter) Err() error               { return nil }
func (m *memIter) Close()                   {}

// treeIterator merges every source AppendSources gives for tr: the tree as
// one ordered stream, read the way a scan reads it.
func treeIterator(tr *Tree, th *hw.Thread) *MergingIterator {
	var m MergingIterator
	m.Reset(tr.AppendSources(th, nil, new(TreeSources)))
	return &m
}

func icmpBytes(a, b []byte) int {
	return util.CompareInternal(util.InternalKey(a), util.InternalKey(b))
}

func newEnv(t *testing.T, opts Options) (*hw.Machine, *Tree, *hw.Thread, hw.Region, *pmemfs.FS) {
	t.Helper()
	m := hw.NewMachine(hw.Config{PMemBytes: 512 << 20})
	th := m.NewThread(0)
	fs, err := pmemfs.Mount(m, m.Alloc("fs", 256<<20, 0), th)
	if err != nil {
		t.Fatal(err)
	}
	manifest := m.Alloc("manifest", 4<<20, 0)
	tr, err := Open(m, fs, manifest, opts, th)
	if err != nil {
		t.Fatal(err)
	}
	return m, tr, th, manifest, fs
}

// dropReaders forgets every open table reader, which leaves the tree as a
// reopened one finds it: the tables this process wrote are opened from media,
// on first use, like any other.
func dropReaders(tr *Tree) {
	tr.readerMu.Lock()
	defer tr.readerMu.Unlock()
	clear(tr.readers)
}

// fillTable builds a skiplist memtable with n sequential entries starting at
// seq, then flushes it into the tree.
func fillTable(t *testing.T, tr *Tree, th *hw.Thread, start, n int, seq uint64, val string) uint64 {
	t.Helper()
	l := skiplist.New(icmpBytes, 1)
	maxSeq := seq
	for i := 0; i < n; i++ {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", start+i)), seq, util.KindValue)
		l.Insert(ik, []byte(fmt.Sprintf("%s-%d", val, start+i)), nil)
		maxSeq = seq
		seq++
	}
	if err := tr.Flush(th, newMemIter(l), maxSeq); err != nil {
		t.Fatal(err)
	}
	return seq
}

func TestFlushAndGet(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{})
	fillTable(t, tr, th, 0, 1000, 1, "v")
	for i := 0; i < 1000; i += 13 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, _, found, deleted, err := tr.Get(th, k, util.MaxSequence)
		if err != nil {
			t.Fatal(err)
		}
		if !found || deleted || string(v) != fmt.Sprintf("v-%d", i) {
			t.Fatalf("Get(%s) = %q found=%v deleted=%v", k, v, found, deleted)
		}
	}
	if _, _, found, _, _ := tr.Get(th, []byte("nope"), util.MaxSequence); found {
		t.Fatal("found absent key")
	}
}

func TestNewerTableShadowsOlder(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100})
	fillTable(t, tr, th, 0, 100, 1, "old")
	fillTable(t, tr, th, 0, 100, 1000, "new")
	v, _, found, _, _ := tr.Get(th, []byte("key00000050"), util.MaxSequence)
	if !found || string(v) != "new-50" {
		t.Fatalf("got %q", v)
	}
	// Snapshot read below the second fill sees the old value.
	v, _, found, _, _ = tr.Get(th, []byte("key00000050"), 500)
	if !found || string(v) != "old-50" {
		t.Fatalf("snapshot read got %q", v)
	}
}

func TestTombstoneStopsSearch(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100})
	fillTable(t, tr, th, 0, 10, 1, "v")
	// Flush a tombstone for key 5 in a newer table.
	l := skiplist.New(icmpBytes, 2)
	ik := util.MakeInternalKey(nil, []byte("key00000005"), 100, util.KindDelete)
	l.Insert(ik, nil, nil)
	if err := tr.Flush(th, newMemIter(l), 100); err != nil {
		t.Fatal(err)
	}
	_, _, found, deleted, _ := tr.Get(th, []byte("key00000005"), util.MaxSequence)
	if found || !deleted {
		t.Fatalf("tombstone not honored: found=%v deleted=%v", found, deleted)
	}
	// Other keys unaffected.
	if _, _, found, _, _ := tr.Get(th, []byte("key00000006"), util.MaxSequence); !found {
		t.Fatal("unrelated key lost")
	}
}

func TestL0CompactionTriggered(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 4})
	seq := uint64(1)
	for i := 0; i < 4; i++ {
		seq = fillTable(t, tr, th, i*500, 500, seq, fmt.Sprintf("g%d", i))
	}
	if n := tr.NumFiles(0); n != 0 {
		t.Fatalf("L0 still has %d files after trigger", n)
	}
	if tr.NumFiles(1) == 0 {
		t.Fatal("no files in L1 after compaction")
	}
	if tr.GetStats().Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	// All data still visible.
	for i := 0; i < 2000; i += 97 {
		k := []byte(fmt.Sprintf("key%08d", i))
		if _, _, found, _, _ := tr.Get(th, k, util.MaxSequence); !found {
			t.Fatalf("lost %s after compaction", k)
		}
	}
}

func TestCompactionDedupsAndDropsTombstones(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 4})
	// Table 1: keys 0..99 = v1. Table 2: keys 0..99 = v2.
	fillTable(t, tr, th, 0, 100, 1, "v1")
	fillTable(t, tr, th, 0, 100, 200, "v2")
	// Table 3: tombstones for even keys.
	l := skiplist.New(icmpBytes, 3)
	for i := 0; i < 100; i += 2 {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i)), uint64(400+i), util.KindDelete)
		l.Insert(ik, nil, nil)
	}
	tr.Flush(th, newMemIter(l), 500)
	// Table 4 triggers compaction of all four L0 tables into L1.
	fillTable(t, tr, th, 1000, 10, 600, "x")
	if tr.NumFiles(0) != 0 {
		t.Fatal("compaction did not run")
	}
	// After full compaction to the bottom-most populated level, tombstones
	// and shadowed versions are gone; total entries = 50 odd keys + 10 x-keys.
	var total int
	for lvl := 0; lvl < 7; lvl++ {
		for _, f := range tr.Files(lvl) {
			total += f.Count
		}
	}
	if total != 60 {
		t.Fatalf("compacted entry count = %d, want 60", total)
	}
	// Deleted keys are gone, odd keys show v2.
	if _, _, found, _, _ := tr.Get(th, []byte("key00000004"), util.MaxSequence); found {
		t.Fatal("deleted key resurfaced")
	}
	v, _, found, _, _ := tr.Get(th, []byte("key00000007"), util.MaxSequence)
	if !found || string(v) != "v2-7" {
		t.Fatalf("odd key = %q found=%v", v, found)
	}
}

func TestDeeperCompactionCascade(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{
		L0CompactionTrigger: 2,
		BaseLevelBytes:      64 << 10, // tiny L1 to force cascades
		TableFileSize:       32 << 10,
	})
	seq := uint64(1)
	for i := 0; i < 12; i++ {
		seq = fillTable(t, tr, th, i*300, 300, seq, fmt.Sprintf("g%02d", i))
	}
	if tr.LevelBytes(2) == 0 {
		t.Fatal("nothing reached L2 despite tiny L1 limit")
	}
	for i := 0; i < 3600; i += 131 {
		k := []byte(fmt.Sprintf("key%08d", i))
		if _, _, found, _, _ := tr.Get(th, k, util.MaxSequence); !found {
			t.Fatalf("lost %s in cascade", k)
		}
	}
}

func TestSingleLevelMode(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{SingleLevel: true})
	fillTable(t, tr, th, 0, 500, 1, "a")
	fillTable(t, tr, th, 250, 500, 1000, "b") // overlapping range
	if tr.NumFiles(0) != 0 {
		t.Fatal("single-level mode placed files in L0")
	}
	if tr.NumFiles(1) == 0 {
		t.Fatal("single-level mode has no L1 files")
	}
	if tr.GetStats().Compactions != 0 {
		t.Fatal("single-level mode must not compact")
	}
	// Overlap resolved by recency.
	v, _, found, _, _ := tr.Get(th, []byte("key00000400"), util.MaxSequence)
	if !found || string(v) != "b-400" {
		t.Fatalf("got %q", v)
	}
	v, _, found, _, _ = tr.Get(th, []byte("key00000100"), util.MaxSequence)
	if !found || string(v) != "a-100" {
		t.Fatalf("got %q", v)
	}
}

func TestGetInTable(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{SingleLevel: true})
	fillTable(t, tr, th, 0, 100, 1, "v")
	files := tr.Files(1)
	if len(files) == 0 {
		t.Fatal("no files")
	}
	v, _, kind, ok, err := tr.GetInTable(th, files[0].Num, []byte("key00000042"), util.MaxSequence)
	if err != nil || !ok || kind != util.KindValue || string(v) != "v-42" {
		t.Fatalf("GetInTable = %q %v %v %v", v, kind, ok, err)
	}
}

func TestManifestRecovery(t *testing.T) {
	m, tr, th, manifest, fs := newEnv(t, Options{L0CompactionTrigger: 3})
	seq := uint64(1)
	for i := 0; i < 5; i++ {
		seq = fillTable(t, tr, th, i*200, 200, seq, fmt.Sprintf("g%d", i))
	}
	lastSeq := tr.LastSeq()
	m.Crash()
	m.Recover()
	th = m.NewThread(0) // the old boot's thread would store nothing
	tr2, err := Open(m, fs, manifest, Options{L0CompactionTrigger: 3}, th)
	if err != nil {
		t.Fatal(err)
	}
	if tr2.LastSeq() != lastSeq {
		t.Fatalf("lastSeq lost: %d vs %d", tr2.LastSeq(), lastSeq)
	}
	for i := 0; i < 1000; i += 37 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, _, found, _, _ := tr2.Get(th, k, util.MaxSequence)
		if !found {
			t.Fatalf("lost %s after recovery", k)
		}
		want := fmt.Sprintf("g%d-%d", i/200, i)
		if string(v) != want {
			t.Fatalf("recovered %s = %q, want %q", k, v, want)
		}
	}
	// The recovered tree keeps working: more flushes and compactions.
	fillTable(t, tr2, th, 5000, 200, seq, "post")
	if _, _, found, _, _ := tr2.Get(th, []byte("key00005100"), util.MaxSequence); !found {
		t.Fatal("post-recovery flush lost")
	}
}

func TestFullScanMergesLevels(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 3})
	seq := fillTable(t, tr, th, 0, 500, 1, "old")
	fillTable(t, tr, th, 250, 500, seq, "new")
	it := treeIterator(tr, th)
	it.SeekToFirst()
	// Walk and keep the freshest version per user key.
	fresh := map[string]string{}
	var prevUser string
	for it.Valid() {
		ik := it.Key()
		u := string(ik.UserKey())
		if u != prevUser {
			fresh[u] = string(it.Value())
			prevUser = u
		}
		it.Next()
	}
	if len(fresh) != 750 {
		t.Fatalf("scan saw %d user keys, want 750", len(fresh))
	}
	if fresh["key00000400"] != "new-400" {
		t.Fatalf("key00000400 = %q", fresh["key00000400"])
	}
	if fresh["key00000100"] != "old-100" {
		t.Fatalf("key00000100 = %q", fresh["key00000100"])
	}
}

func TestMergingIteratorSeek(t *testing.T) {
	a := skiplist.New(icmpBytes, 1)
	b := skiplist.New(icmpBytes, 2)
	for i := 0; i < 100; i += 2 {
		a.Insert(util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%03d", i)), uint64(i+1), util.KindValue), []byte("a"), nil)
	}
	for i := 1; i < 100; i += 2 {
		b.Insert(util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%03d", i)), uint64(i+1), util.KindValue), []byte("b"), nil)
	}
	var m MergingIterator
	m.Reset([]Iterator{newMemIter(a), newMemIter(b)})
	m.SeekToFirst()
	for i := 0; i < 100; i++ {
		if !m.Valid() {
			t.Fatalf("merge ended early at %d", i)
		}
		if want := fmt.Sprintf("k%03d", i); string(m.Key().UserKey()) != want {
			t.Fatalf("at %d: %s", i, m.Key())
		}
		m.Next()
	}
	if m.Valid() {
		t.Fatal("merge has extras")
	}
	target := util.MakeInternalKey(nil, []byte("k050"), util.MaxSequence, util.KindValue)
	m.Seek(target)
	if !m.Valid() || string(m.Key().UserKey()) != "k050" {
		t.Fatalf("merge Seek landed on %s", m.Key())
	}
}

// A published version is immutable: Get walks t.levels outside the lock, so
// an edit must build new level slices and never sort or splice the old ones.
func TestApplyIsCopyOnWrite(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100})
	seq := uint64(1)
	for i := 0; i < 3; i++ {
		seq = fillTable(t, tr, th, i*10, 10, seq, "v")
	}
	snapshot := func() ([][]*FileMeta, [][]*FileMeta) {
		tr.mu.RLock()
		defer tr.mu.RUnlock()
		held := tr.levels
		image := make([][]*FileMeta, len(held))
		for l := range held {
			image[l] = append([]*FileMeta(nil), held[l]...)
		}
		return held, image
	}
	held, image := snapshot()
	for i, f := range held[0] {
		if i > 0 && f.Num > held[0][i-1].Num {
			t.Fatalf("L0 is not newest first: %d after %d", f.Num, held[0][i-1].Num)
		}
	}

	// One flush (an add to L0) and one compaction (deletes from L0, adds to
	// L1) later, the version taken before must still read exactly as it did.
	seq = fillTable(t, tr, th, 30, 10, seq, "v")
	tr.mu.Lock()
	c := tr.buildCompactionLocked(0)
	tr.mu.Unlock()
	if c == nil {
		t.Fatal("no L0 compaction to run")
	}
	if _, err := tr.compact(th, c); err != nil {
		t.Fatal(err)
	}
	if tr.NumFiles(0) != 0 || tr.NumFiles(1) == 0 {
		t.Fatalf("compaction left L0=%d L1=%d", tr.NumFiles(0), tr.NumFiles(1))
	}
	for l := range image {
		if len(held[l]) != len(image[l]) {
			t.Fatalf("level %d of a held version changed length %d -> %d", l, len(image[l]), len(held[l]))
		}
		for i := range image[l] {
			if held[l][i] != image[l][i] {
				t.Fatalf("level %d slot %d of a held version was rewritten in place", l, i)
			}
		}
	}
	_ = seq
}

// The level walk itself allocates nothing: no copy of the version, no sort.
// What remains is the lookup key, the value and the table reads.
func TestGetLevelWalkDoesNotAllocate(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100})
	seq := uint64(1)
	for i := 0; i < 6; i++ {
		seq = fillTable(t, tr, th, 0, 200, seq, "v") // six overlapping L0 tables
	}
	key := []byte("key00000100")
	if _, _, found, _, err := tr.Get(th, key, util.MaxSequence); !found || err != nil {
		t.Fatalf("Get: found=%v err=%v", found, err)
	}
	// Per Get: the internal key, and one value per L0 table that holds a
	// version (all six do).
	if n := testing.AllocsPerRun(100, func() { tr.Get(th, key, util.MaxSequence) }); n > 7 {
		t.Fatalf("Get over six L0 tables: %.1f allocations, want at most 7", n)
	}
}
