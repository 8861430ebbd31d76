package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cachekv/internal/block"
	"cachekv/internal/hw"
	"cachekv/internal/pmemfs"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// testEntry is one internal entry of a hand-built tree.
type testEntry struct {
	ukey string
	seq  uint64
	kind util.ValueKind
	val  string
}

// memtableOf returns an iterator over entries in internal-key order, as a
// frozen memtable presents them, and their highest sequence number.
func memtableOf(entries []testEntry) (*memIter, uint64) {
	l := skiplist.New(icmpBytes, 1)
	var maxSeq uint64
	for _, e := range entries {
		l.Insert(util.MakeInternalKey(nil, []byte(e.ukey), e.seq, e.kind), []byte(e.val), nil)
		if e.seq > maxSeq {
			maxSeq = e.seq
		}
	}
	return newMemIter(l), maxSeq
}

// installAt writes entries as tables of their own and installs them at level,
// bypassing flush and compaction so a test decides each level's shape.
func installAt(t *testing.T, tr *Tree, th *hw.Thread, level int, entries []testEntry) {
	t.Helper()
	it, _ := memtableOf(entries)
	it.SeekToFirst()
	metas, err := tr.writeTables(th, it, false, false, nil, tr.opts.TableFileSize)
	if err != nil {
		t.Fatal(err)
	}
	e := &versionEdit{}
	for _, meta := range metas {
		e.added = append(e.added, addedFile{level: level, meta: meta})
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if err := tr.logAndApply(th, e); err != nil {
		t.Fatal(err)
	}
}

// eagerIterator is the iterator the tree had before levels became lazy: one
// table iterator per file, every one opened up front, newest file first.
func eagerIterator(t *testing.T, tr *Tree, th *hw.Thread) Iterator {
	t.Helper()
	var all []*FileMeta
	for _, files := range tr.levels {
		all = append(all, files...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Num > all[j].Num })
	var its []Iterator
	for _, f := range all {
		it, err := tr.TableIterator(th, f.Num)
		if err != nil {
			t.Fatal(err)
		}
		its = append(its, it)
	}
	var m MergingIterator
	m.Reset(its)
	return &m
}

// sameStream walks both iterators from where they stand and fails on the
// first difference in the (internal key, value) stream.
func sameStream(t *testing.T, what string, got, want Iterator) {
	t.Helper()
	for n := 0; ; n++ {
		if got.Valid() != want.Valid() {
			t.Fatalf("%s: after %d rows lazy valid=%v, eager valid=%v", what, n, got.Valid(), want.Valid())
		}
		if !got.Valid() {
			break
		}
		if !bytes.Equal(got.Key(), want.Key()) || !bytes.Equal(got.Value(), want.Value()) {
			t.Fatalf("%s: row %d lazy %q=%q, eager %q=%q", what, n, got.Key(), got.Value(), want.Key(), want.Value())
		}
		got.Next()
		want.Next()
	}
	if got.Err() != nil || want.Err() != nil {
		t.Fatalf("%s: lazy err %v, eager err %v", what, got.Err(), want.Err())
	}
}

// randomLevel draws a sorted run's worth of entries: a random subset of the
// key space, some keys with several versions, some deleted, and now and then
// a range tombstone starting at a key that has point versions too.
func randomLevel(rng *rand.Rand, keys, pick int, seq *uint64) []testEntry {
	var es []testEntry
	for _, k := range rng.Perm(keys)[:pick] {
		ukey := fmt.Sprintf("key%05d", k)
		for v := 1 + rng.Intn(2)*rng.Intn(3); v > 0; v-- {
			*seq++
			e := testEntry{ukey, *seq, util.KindValue, fmt.Sprintf("v%d-%s", *seq, bytes.Repeat([]byte{'x'}, rng.Intn(120)))}
			if rng.Intn(10) == 0 {
				e.kind, e.val = util.KindDelete, ""
			}
			es = append(es, e)
		}
		if rng.Intn(25) == 0 {
			*seq++
			es = append(es, testEntry{ukey, *seq, util.KindRangeDel, fmt.Sprintf("key%05d", k+1+rng.Intn(40))})
		}
	}
	return es
}

// TestLazyIteratorMatchesEagerMerge is the differential test for
// Tree.AppendSources: over seeded random trees — 0 to 6 L0 files, levels that
// are empty, hold one file or hold many, range tombstones, user keys repeated
// across levels — it must yield the stream a merge of one eager iterator per
// file yields, from the start and from a Seek at every file boundary, inside
// every gap between files, before the first key and past the last.
func TestLazyIteratorMatchesEagerMerge(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{MaxLevels: 5, TableFileSize: 4 << 10, SingleLevel: seed%6 == 0}
		_, tr, th, _, _ := newEnv(t, opts)
		const keys = 2000
		seq := uint64(0)
		if opts.SingleLevel {
			for n := 1 + rng.Intn(5); n > 0; n-- {
				installAt(t, tr, th, 1, randomLevel(rng, keys, 20+rng.Intn(200), &seq))
			}
		} else {
			// Deepest level first, so sequence numbers grow towards L0.
			for level := opts.MaxLevels - 1; level >= 1; level-- {
				switch rng.Intn(4) {
				case 0: // empty level
				case 1: // a single small file
					installAt(t, tr, th, level, randomLevel(rng, keys, 1+rng.Intn(15), &seq))
				default: // many files
					installAt(t, tr, th, level, randomLevel(rng, keys, 100+rng.Intn(500), &seq))
				}
			}
			for n := int(seed-1) % 7; n > 0; n-- { // 0 to 6 L0 files
				installAt(t, tr, th, 0, randomLevel(rng, keys, 1+rng.Intn(25), &seq))
			}
		}

		// Seek targets: around every file's first and last key.
		targets := []util.InternalKey{
			util.MakeInternalKey(nil, nil, util.MaxSequence, util.KindValue),
			util.MakeInternalKey(nil, []byte("zzzz"), util.MaxSequence, util.KindValue),
		}
		for _, files := range tr.levels {
			for _, f := range files {
				for _, k := range []util.InternalKey{f.Smallest, f.Largest} {
					u := k.UserKey()
					targets = append(targets,
						append(util.InternalKey(nil), k...),
						util.MakeInternalKey(nil, u, util.MaxSequence, util.KindValue),            // before every version of u
						util.MakeInternalKey(nil, u, 0, util.KindDelete),                          // after every version of u
						util.MakeInternalKey(nil, append(append([]byte(nil), u...), 0), 0, 0),     // in the gap after u
						util.MakeInternalKey(nil, u[:len(u)-1], util.MaxSequence, util.KindValue), // in the gap before u
					)
				}
			}
		}

		lazy := treeIterator(tr, th)
		eager := eagerIterator(t, tr, th)
		lazy.SeekToFirst()
		eager.SeekToFirst()
		sameStream(t, fmt.Sprintf("seed %d from the start", seed), lazy, eager)
		for _, target := range targets {
			lazy.Seek(target)
			eager.Seek(target)
			sameStream(t, fmt.Sprintf("seed %d from %q", seed, target), lazy, eager)
		}
		lazy.Close()
		eager.Close()
	}
}

// blockEnds returns, in file order, the last internal key of each data block
// of table num, parsed from the table's footer and index block.
func blockEnds(t *testing.T, fs *pmemfs.FS, th *hw.Thread, num uint64) []util.InternalKey {
	t.Helper()
	f, err := fs.Open(tableName(num))
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, f.Size())
	if err := f.ReadAt(th, 0, raw); err != nil {
		t.Fatal(err)
	}
	footer := raw[len(raw)-40:]
	_, n, _ := util.Uvarint(footer) // filter offset
	_, m, _ := util.Uvarint(footer[n:])
	off, n2, _ := util.Uvarint(footer[n+m:])
	length, _, _ := util.Uvarint(footer[n+m+n2:])
	idx, err := block.NewIter(raw[off : off+length])
	if err != nil {
		t.Fatal(err)
	}
	var ends []util.InternalKey
	for idx.SeekToFirst(); idx.Valid(); idx.Next() {
		ends = append(ends, append(util.InternalKey(nil), idx.Key()...))
	}
	return ends
}

// TestScanBudget pins what a short scan may touch on a settled three-level
// tree. Each source probes the block cache once where the Seek lands and once
// per block boundary it crosses, so fifty rows cost at most
// sources + blocks-the-rows-came-from probes; and only the tables the scanned
// range runs through are ever opened.
func TestScanBudget(t *testing.T) {
	_, tr, th, _, fs := newEnv(t, Options{MaxLevels: 4, TableFileSize: 8 << 10})
	rng := rand.New(rand.NewSource(7))
	const keys = 3000
	val := string(bytes.Repeat([]byte{'v'}, 100))
	seq := uint64(0)
	level := func(lvl int, pick func(k int) bool) {
		var es []testEntry
		for k := 0; k < keys; k++ {
			if pick(k) {
				seq++
				es = append(es, testEntry{fmt.Sprintf("key%05d", k), seq, util.KindValue, val})
			}
		}
		installAt(t, tr, th, lvl, es)
	}
	level(2, func(int) bool { return true })
	level(1, func(k int) bool { return k%3 == 0 })
	level(0, func(k int) bool { return k < 800 && rng.Intn(8) == 0 })   // ends below the scan
	level(0, func(k int) bool { return k >= 900 && rng.Intn(40) == 0 }) // spans it
	level(0, func(k int) bool { return k >= 1500 && rng.Intn(8) == 0 }) // starts above it
	if len(tr.levels[1]) < 5 || len(tr.levels[2]) < 15 {
		t.Fatalf("tree too small to prove anything: %d L1 and %d L2 files", len(tr.levels[1]), len(tr.levels[2]))
	}

	dropReaders(tr)

	start := util.MakeInternalKey(nil, []byte("key01000"), util.MaxSequence, util.KindValue)
	before := tr.CacheStats()
	it := treeIterator(tr, th)
	defer it.Close()
	if len(tr.readers) != 0 {
		t.Fatalf("AppendSources opened %d tables before any Seek", len(tr.readers))
	}
	const rows = 50
	var popped []util.InternalKey // every internal row the merge delivered
	var lastUser []byte
	n := 0
	for it.Seek(start); it.Valid(); it.Next() {
		popped = append(popped, append(util.InternalKey(nil), it.Key()...))
		if u := it.Key().UserKey(); !bytes.Equal(u, lastUser) {
			lastUser = append(lastUser[:0], u...)
			if n++; n == rows {
				break
			}
		}
	}
	if n != rows || it.Err() != nil {
		t.Fatalf("scan delivered %d rows, err %v", n, it.Err())
	}
	last := popped[len(popped)-1]

	// Tables the range [start, last] runs through: an L0 file unless it ends
	// below start; in a sorted level the file the Seek lands in through the
	// file holding the level's next row.
	allowed := map[uint64]bool{}
	sources := 0
	for _, f := range tr.levels[0] {
		if util.CompareInternal(f.Largest, start) >= 0 {
			allowed[f.Num] = true
			sources++
		}
	}
	for _, files := range tr.levels[1:] {
		reach := func(k util.InternalKey) int {
			return sort.Search(len(files), func(i int) bool { return util.CompareInternal(files[i].Largest, k) >= 0 })
		}
		if len(files) > 0 {
			sources++
		}
		for i := reach(start); i <= reach(last) && i < len(files); i++ {
			allowed[files[i].Num] = true
		}
	}
	for num := range tr.readers {
		if !allowed[num] {
			t.Errorf("scan opened table %d, which [%q, %q] does not run through", num, start.UserKey(), last.UserKey())
		}
	}
	after := tr.CacheStats()
	probes := (after.Hits + after.Misses) - (before.Hits + before.Misses)

	// Blocks the delivered rows came from: walk each opened table and place
	// its delivered entries by the index block's keys.
	delivered := map[string]bool{}
	for _, k := range popped {
		delivered[string(k)] = true
	}
	blocks := map[string]bool{}
	for num := range allowed {
		ends := blockEnds(t, fs, th, num)
		ti, err := tr.TableIterator(th, num)
		if err != nil {
			t.Fatal(err)
		}
		for ti.SeekToFirst(); ti.Valid(); ti.Next() {
			if k := ti.Key(); delivered[string(k)] {
				b := sort.Search(len(ends), func(i int) bool { return util.CompareInternal(ends[i], k) >= 0 })
				blocks[fmt.Sprintf("%d/%d", num, b)] = true
			}
		}
		ti.Close()
	}
	if budget := int64(sources + len(blocks)); probes > budget {
		t.Errorf("a %d-row scan probed the block cache %d times, budget %d (%d sources + %d blocks)",
			rows, probes, budget, sources, len(blocks))
	}
	if probes < int64(sources) {
		t.Errorf("%d probes from %d sources: the test is not measuring the scan", probes, sources)
	}
}

// A sorted level's table is opened when the walk reaches it. If it is gone by
// then — deleted past the graveyard's grace — the iterator must say so, not
// end as if the level had run out.
func TestLevelIterReportsFailedLazyOpen(t *testing.T) {
	_, tr, th, _, fs := newEnv(t, Options{MaxLevels: 3, TableFileSize: 4 << 10})
	var es []testEntry
	for k := 0; k < 600; k++ {
		es = append(es, testEntry{fmt.Sprintf("key%05d", k), uint64(k + 1), util.KindValue, "v"})
	}
	installAt(t, tr, th, 1, es)
	dropReaders(tr)
	files := tr.levels[1]
	if len(files) < 3 {
		t.Fatalf("want at least 3 files in L1, have %d", len(files))
	}
	it := treeIterator(tr, th)
	defer it.Close()
	it.SeekToFirst()
	if err := fs.Delete(th, tableName(files[1].Num)); err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; it.Valid(); it.Next() {
		n++
	}
	if n != files[0].Count {
		t.Fatalf("walked %d rows, want the first file's %d", n, files[0].Count)
	}
	if !errors.Is(it.Err(), pmemfs.ErrNotFound) {
		t.Fatalf("Err() = %v, want pmemfs.ErrNotFound", it.Err())
	}
}

// TestMergingIteratorAllocs: a merge reused through Reset allocates nothing —
// not its items, not its heap, not in Seek or Next — and still yields the
// interleaved stream in (internal key, ord) order.
func TestMergingIteratorAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const sources, perSource = 6, 50
	its := make([]Iterator, sources)
	for s := range its {
		l := skiplist.New(icmpBytes, uint64(s+1))
		for i := 0; i < perSource; i++ {
			k := i*sources + s // source s holds every sixth key
			l.Insert(util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%04d", k)), uint64(k+1), util.KindValue), nil, nil)
		}
		its[s] = newMemIter(l)
	}
	start := util.MakeInternalKey(nil, []byte("k0010"), util.MaxSequence, util.KindValue)
	var m MergingIterator
	rows, ordered := 0, true
	walk := func() {
		m.Reset(its)
		rows = 0
		for m.Seek(start); m.Valid(); m.Next() {
			ordered = ordered && m.Key().Seq() == uint64(10+rows+1)
			rows++
		}
	}
	walk()
	if n := testing.AllocsPerRun(100, walk); n != 0 {
		t.Errorf("Reset + Seek + a walk over %d sources allocates %.1f objects, want 0", sources, n)
	}
	if rows != sources*perSource-10 || !ordered {
		t.Fatalf("the merge yielded %d rows (in order: %v), want %d in order", rows, ordered, sources*perSource-10)
	}
}
