package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/bgpool"
	"cachekv/internal/hw"
	"cachekv/internal/obs"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// smallOpts is a geometry that forces multi-level cascades out of a few
// hundred KiB of data: 4 KiB tables, 16 KiB base level, 4x growth.
func smallOpts() Options {
	return Options{
		L0CompactionTrigger: 2,
		BaseLevelBytes:      16 << 10,
		LevelMultiplier:     4,
		MaxLevels:           5,
		TableFileSize:       4 << 10,
	}
}

// drainCompactions runs MaybeCompact until the tree reports no debt.
func drainCompactions(t *testing.T, tr *Tree, th *hw.Thread) {
	t.Helper()
	for i := 0; ; i++ {
		if err := tr.MaybeCompact(th); err != nil {
			t.Fatal(err)
		}
		if tr.CompactionDebt() == 0 {
			return
		}
		if i > 1000 {
			t.Fatal("compaction debt never drains")
		}
	}
}

// compactor runs a tree's compactions as an engine's compact kind does: each
// of a pool's workers runs CompactNext on its own clock. onJob sees each job's
// outcome; an error crash-stops the pool, as the engine's fail does.
type compactor struct {
	*bgpool.Kind[struct{}]
	pool *bgpool.Pool
	tr   *Tree
}

func startCompactor(tr *Tree, workers int, trace *obs.Trace, onJob func(err error)) *compactor {
	c := &compactor{pool: bgpool.New(func(error) {}), tr: tr}
	ths := make([]*hw.Thread, workers)
	for w := range ths {
		ths[w] = tr.m.NewThread(0)
	}
	c.Kind = bgpool.Add(c.pool, bgpool.Config{Name: "compact", Workers: workers, Rule: bgpool.Coalesce, Abandon: true},
		func(w int, at int64, _ struct{}) (int64, bool) {
			done, ran, err := tr.CompactNext(ths[w], at, c.Kind, trace)
			if ran && onJob != nil {
				onJob(err)
			}
			if err != nil {
				c.pool.Abort()
			}
			return done, ran && err == nil
		}, nil)
	return c
}

func (c *compactor) kick(at int64) { c.Submit(at, struct{}{}) }

// waitIdle waits for the tree to settle, as an engine's FlushAll does.
func (c *compactor) waitIdle(th *hw.Thread) { c.tr.WaitSettled(th, c.Kind) }

// checkLevelInvariants asserts every level >= 1 holds sorted, disjoint
// user-key ranges — the invariant the L1+ overlap-set fix protects. A pick
// that misses same-level or next-level overlapping inputs installs outputs
// that violate exactly this. It reports with Errorf: the property test calls it
// from a scheduler worker, which a Fatal would kill mid-drain.
func checkLevelInvariants(t *testing.T, tr *Tree) {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	for lvl := 1; lvl < tr.opts.MaxLevels; lvl++ {
		files := tr.levels[lvl]
		for i := 1; i < len(files); i++ {
			prev, cur := files[i-1], files[i]
			if bytes.Compare(prev.Smallest.UserKey(), cur.Smallest.UserKey()) > 0 {
				t.Errorf("L%d not sorted: file %d starts at %q after %q",
					lvl, cur.Num, cur.Smallest.UserKey(), prev.Smallest.UserKey())
			}
			if bytes.Compare(prev.Largest.UserKey(), cur.Smallest.UserKey()) >= 0 {
				t.Errorf("L%d overlap: file %d [%q..%q] vs file %d [%q..%q]",
					lvl, prev.Num, prev.Smallest.UserKey(), prev.Largest.UserKey(),
					cur.Num, cur.Smallest.UserKey(), cur.Largest.UserKey())
			}
		}
	}
}

// TestCompactionOverlapSetsStayConsistent is the regression test for the L1+
// compaction pick: every cascade must carry the full next-level overlap set,
// or newer versions end up below older ones and reads go stale. Three
// generations of the same key space are flushed with the newest sequence
// numbers last, cascaded down several levels, and every key must still read
// its newest value.
func TestCompactionOverlapSetsStayConsistent(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	seq := uint64(1)
	for gen := 0; gen < 3; gen++ {
		for i := 0; i < 8; i++ {
			// Overlapping 250-key runs so L1+ files share boundaries.
			seq = fillTable(t, tr, th, i*125, 250, seq, fmt.Sprintf("gen%d", gen))
		}
		drainCompactions(t, tr, th)
		checkLevelInvariants(t, tr)
	}
	// The cascade must have pushed data past L1.
	deep := 0
	for lvl := 2; lvl < tr.opts.MaxLevels; lvl++ {
		deep += tr.NumFiles(lvl)
	}
	if deep == 0 {
		t.Fatal("cascade never reached L2+; geometry too large for the regression to bite")
	}
	// L1+ compactions ran, so the rotation pointer must have advanced.
	tr.mu.RLock()
	ptr := tr.compactPtr[1]
	tr.mu.RUnlock()
	if ptr == nil {
		t.Fatal("compactPtr[1] never set despite L1 compactions")
	}
	for i := 0; i < 1125; i += 7 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, _, found, deleted, err := tr.Get(th, k, util.MaxSequence)
		if err != nil {
			t.Fatal(err)
		}
		if !found || deleted {
			t.Fatalf("lost %s after cascade", k)
		}
		if want := fmt.Sprintf("gen2-%d", i); string(v) != want {
			t.Fatalf("stale read %s = %q, want %q", k, v, want)
		}
	}
}

func TestSchedulerDrainsDebt(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	c := startCompactor(tr, 2, nil, func(err error) {
		if err != nil {
			t.Errorf("background compaction failed: %v", err)
		}
	})
	defer c.pool.Close()

	seq := uint64(1)
	for i := 0; i < 6; i++ {
		l := skiplist.New(icmpBytes, 1)
		maxSeq := seq
		for j := 0; j < 200; j++ {
			ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i*100+j)), seq, util.KindValue)
			l.Insert(ik, []byte(fmt.Sprintf("s%d-%d", i, i*100+j)), nil)
			maxSeq = seq
			seq++
		}
		if err := tr.FlushNoCompact(th, newMemIter(l), maxSeq); err != nil {
			t.Fatal(err)
		}
		c.kick(th.Clock.Now())
	}
	c.waitIdle(th)

	if debt := tr.CompactionDebt(); debt != 0 {
		t.Fatalf("workers left %d bytes of debt after waitIdle", debt)
	}
	if jobs, _ := c.Server.Stats(); jobs == 0 {
		t.Fatal("workers ran no jobs despite L0 debt")
	}
	if c.Running() != 0 || tr.DueLevels() != 0 {
		t.Fatalf("idle workers report running=%d due=%d", c.Running(), tr.DueLevels())
	}
	checkLevelInvariants(t, tr)
	// Newest generation of every key survives the background cascade.
	for i := 0; i < 700; i += 11 {
		k := []byte(fmt.Sprintf("key%08d", i))
		_, _, found, deleted, err := tr.Get(th, k, util.MaxSequence)
		if err != nil {
			t.Fatal(err)
		}
		if !found || deleted {
			t.Fatalf("lost %s after background compaction", k)
		}
	}
}

// TestSchedulerStopsOnStickyError checks the crash-stop contract: once the
// engine failed and aborted its pool, workers pick no more jobs.
func TestSchedulerStopsOnStickyError(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	c := startCompactor(tr, 1, nil, nil)
	c.pool.Abort()
	seq := uint64(0)
	flushRun(t, tr, th, uniqueRun(0, 2, 60, 24, &seq)) // two overlapping L0 tables: due
	flushRun(t, tr, th, uniqueRun(1, 2, 60, 24, &seq))
	c.waitIdle(th)
	c.pool.Close()
	if jobs, _ := c.Server.Stats(); jobs != 0 || tr.DueLevels() == 0 {
		t.Fatalf("workers ran %d jobs past a crash-stop, %d levels left due", jobs, tr.DueLevels())
	}
}

// TestIteratorHeldAcrossCompaction pins an iterator over the pre-compaction
// version, compacts its input tables away underneath it, and checks the
// iterator still yields the snapshot it opened — the graveyard's two-cycle
// delay keeps dead tables readable for two jobs after their retirement.
func TestIteratorHeldAcrossCompaction(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	// Build L0 debt without compacting so the pinned iterator reads the
	// exact tables the next jobs will retire.
	seq := uint64(1)
	for i := 0; i < 4; i++ {
		l := skiplist.New(icmpBytes, 1)
		maxSeq := seq
		for j := 0; j < 150; j++ {
			ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i*150+j)), seq, util.KindValue)
			l.Insert(ik, []byte(fmt.Sprintf("old-%d", i*150+j)), nil)
			maxSeq = seq
			seq++
		}
		if err := tr.FlushNoCompact(th, newMemIter(l), maxSeq); err != nil {
			t.Fatal(err)
		}
	}

	it := treeIterator(tr, th)
	// Run up to two compaction jobs — the graveyard's guarantee window —
	// retiring the L0 files the iterator holds.
	jobs := 0
	for i := 0; i < 2; i++ {
		c := tr.pickCompaction()
		if c == nil {
			break
		}
		if _, err := tr.compact(th, c); err != nil {
			t.Fatal(err)
		}
		jobs++
	}
	if jobs == 0 {
		t.Fatal("no compaction ran; the iterator was never at risk")
	}

	got := 0
	var lastUser []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if bytes.Equal(ik.UserKey(), lastUser) {
			continue
		}
		lastUser = append(lastUser[:0], ik.UserKey()...)
		if want := fmt.Sprintf("old-%d", got); string(it.Value()) != want {
			t.Fatalf("pinned iterator saw %q at %q, want %q", it.Value(), ik.UserKey(), want)
		}
		got++
	}
	if got != 600 {
		t.Fatalf("pinned iterator yielded %d keys, want 600", got)
	}
}

// TestConcurrentScansDuringScheduledCompactions is the -race exercise:
// foreground flushes feed the background scheduler while reader goroutines
// continuously open iterators and scan. Every scan must observe a complete
// view of its snapshot. The workload is sized to at most two compaction jobs
// — the graveyard's two-cycle window — so retired tables stay readable for
// every iterator opened before they died; more churn than that is outside
// the tree's documented iterator guarantee.
func TestConcurrentScansDuringScheduledCompactions(t *testing.T) {
	m, tr, th, _, _ := newEnv(t, Options{
		L0CompactionTrigger: 4,
		BaseLevelBytes:      256 << 10, // L1 never over limit: only L0 jobs run
		LevelMultiplier:     4,
		MaxLevels:           5,
		TableFileSize:       8 << 10,
	})
	c := startCompactor(tr, 2, nil, func(err error) {
		if err != nil {
			t.Errorf("background compaction failed: %v", err)
		}
	})
	defer c.pool.Close()

	const keys = 400
	seq := uint64(1)
	flushWave := func(gen int) {
		t.Helper()
		for i := 0; i < 4; i++ {
			l := skiplist.New(icmpBytes, 1)
			maxSeq := seq
			for j := 0; j < 100; j++ {
				k := i*100 + j
				ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", k)), seq, util.KindValue)
				l.Insert(ik, []byte(fmt.Sprintf("g%d-%d", gen, k)), nil)
				maxSeq = seq
				seq++
			}
			if err := tr.FlushNoCompact(th, newMemIter(l), maxSeq); err != nil {
				t.Fatal(err)
			}
		}
		c.kick(th.Clock.Now())
	}
	flushWave(0)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rth := m.NewThread(0)
			for {
				select {
				case <-stop:
					return
				default:
				}
				it := treeIterator(tr, rth)
				n := 0
				var last []byte
				for it.SeekToFirst(); it.Valid(); it.Next() {
					u := it.Key().UserKey()
					if !bytes.Equal(u, last) {
						n++
						last = append(last[:0], u...)
					}
				}
				if n < keys {
					t.Errorf("scan saw %d distinct keys, want >= %d", n, keys)
					return
				}
			}
		}()
	}

	flushWave(1)
	c.waitIdle(th)
	close(stop)
	wg.Wait()

	if jobs, _ := c.Server.Stats(); jobs == 0 {
		t.Fatal("no background jobs ran during the scan workload")
	}
	checkLevelInvariants(t, tr)
	for i := 0; i < keys; i += 17 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, _, found, _, err := tr.Get(th, k, util.MaxSequence)
		if err != nil || !found {
			t.Fatalf("Get(%s): %v found=%v", k, err, found)
		}
		if want := fmt.Sprintf("g1-%d", i); string(v) != want {
			t.Fatalf("Get(%s) = %q, want %q", k, v, want)
		}
	}
}

// flushRangeDel flushes a single range tombstone [start, end) at seq.
func flushRangeDel(t *testing.T, tr *Tree, th *hw.Thread, start, end string, seq uint64) {
	t.Helper()
	l := skiplist.New(icmpBytes, 2)
	ik := util.MakeInternalKey(nil, []byte(start), seq, util.KindRangeDel)
	l.Insert(ik, []byte(end), nil)
	if err := tr.Flush(th, newMemIter(l), seq); err != nil {
		t.Fatal(err)
	}
}

func TestRangeDelVisibilityEdges(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100})
	// Points at seq 10..13: key00000000..key00000003.
	l := skiplist.New(icmpBytes, 1)
	for i := 0; i < 4; i++ {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("key%08d", i)), uint64(10+i), util.KindValue)
		l.Insert(ik, []byte(fmt.Sprintf("v%d", i)), nil)
	}
	if err := tr.Flush(th, newMemIter(l), 13); err != nil {
		t.Fatal(err)
	}
	// Tombstone [key00000001, key00000003) at seq 12. Coverage is strict:
	// it hides seq < 12 inside the span, so key1 (seq 11) dies, key2
	// (seq 12, equal) survives, key3 (span end, exclusive) survives.
	flushRangeDel(t, tr, th, "key00000001", "key00000003", 12)

	cases := []struct {
		key     string
		snap    uint64
		found   bool
		deleted bool
	}{
		{"key00000000", util.MaxSequence, true, false}, // before span
		{"key00000001", util.MaxSequence, false, true}, // start key, seq 11 < 12
		{"key00000002", util.MaxSequence, true, false}, // equal seq survives
		{"key00000003", util.MaxSequence, true, false}, // exclusive end
		{"key00000001", 11, true, false},               // snapshot below tombstone
	}
	for _, c := range cases {
		_, _, found, deleted, err := tr.Get(th, []byte(c.key), c.snap)
		if err != nil {
			t.Fatal(err)
		}
		if found != c.found || deleted != c.deleted {
			t.Fatalf("Get(%s@%d) found=%v deleted=%v, want %v/%v",
				c.key, c.snap, found, deleted, c.found, c.deleted)
		}
	}

	// RangeCoverSeq mirrors the same edges.
	if got := tr.RangeCoverSeq([]byte("key00000001"), util.MaxSequence); got != 12 {
		t.Fatalf("RangeCoverSeq(start key) = %d, want 12", got)
	}
	if got := tr.RangeCoverSeq([]byte("key00000003"), util.MaxSequence); got != 0 {
		t.Fatalf("RangeCoverSeq(end key) = %d, want 0", got)
	}
	if got := tr.RangeCoverSeq([]byte("key00000001"), 11); got != 0 {
		t.Fatalf("RangeCoverSeq below tombstone snapshot = %d, want 0", got)
	}

	// A scan across the boundary suppresses exactly the covered keys. The
	// suppression rule is the one kvstore.UserScanTombs applies: newest
	// visible version per user key, hidden when a tombstone with
	// rd.Seq <= snap strictly covers it.
	it := treeIterator(tr, th)
	tombs := tr.RangeTombstones(nil, util.MaxSequence)
	var seen []string
	var lastUser []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if ik.Kind() == util.KindRangeDel || bytes.Equal(ik.UserKey(), lastUser) {
			continue
		}
		lastUser = append(lastUser[:0], ik.UserKey()...)
		if ik.Kind() == util.KindDelete {
			continue
		}
		covered := false
		for _, rd := range tombs {
			if rd.Covers(ik.UserKey(), ik.Seq()) {
				covered = true
				break
			}
		}
		if !covered {
			seen = append(seen, string(ik.UserKey()))
		}
	}
	want := []string{"key00000000", "key00000002", "key00000003"}
	if len(seen) != len(want) {
		t.Fatalf("scan saw %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("scan saw %v, want %v", seen, want)
		}
	}
}

func TestRangeDelSurvivesCompaction(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	seq := fillTable(t, tr, th, 0, 300, 1, "v")
	flushRangeDel(t, tr, th, "key00000050", "key00000150", seq+1)
	seq += 2
	// Pile on data and cascade so the tombstone's tables get compacted.
	for i := 0; i < 6; i++ {
		seq = fillTable(t, tr, th, 400+i*100, 150, seq, "pad")
	}
	drainCompactions(t, tr, th)
	checkLevelInvariants(t, tr)

	tombs := tr.RangeTombstones(nil, util.MaxSequence)
	found := false
	for _, rd := range tombs {
		if string(rd.Start) == "key00000050" && string(rd.End) == "key00000150" {
			found = true
		}
	}
	if !found {
		t.Fatalf("range tombstone dropped by compaction: %v", tombs)
	}
	for i := 0; i < 300; i += 10 {
		k := []byte(fmt.Sprintf("key%08d", i))
		_, _, got, deleted, err := tr.Get(th, k, util.MaxSequence)
		if err != nil {
			t.Fatal(err)
		}
		covered := i >= 50 && i < 150
		if covered && (got || !deleted) {
			t.Fatalf("covered key %s visible after compaction (found=%v deleted=%v)", k, got, deleted)
		}
		if !covered && (!got || deleted) {
			t.Fatalf("uncovered key %s lost after compaction (found=%v deleted=%v)", k, got, deleted)
		}
	}
}

func TestIngestPlacementAndAtomicity(t *testing.T) {
	m, tr, th, manifest, fs := newEnv(t, Options{L0CompactionTrigger: 100})
	mk := func(n int) []IngestEntry {
		var es []IngestEntry
		for i := 0; i < n; i++ {
			es = append(es, IngestEntry{
				Key:   []byte(fmt.Sprintf("ing%06d", i)),
				Value: []byte(fmt.Sprintf("i%d", i)),
			})
		}
		return es
	}

	// Unsorted batches are rejected before any manifest state changes.
	bad := []IngestEntry{{Key: []byte("b")}, {Key: []byte("a")}}
	if err := tr.Ingest(th, bad, 5); err == nil {
		t.Fatal("unsorted ingest accepted")
	}
	if tr.NumFiles(0)+tr.NumFiles(1) != 0 {
		t.Fatal("rejected ingest left files behind")
	}

	// Zero overlap anywhere: the batch skips L0 and lands in L1.
	if err := tr.Ingest(th, mk(100), 10); err != nil {
		t.Fatal(err)
	}
	if tr.NumFiles(0) != 0 || tr.NumFiles(1) == 0 {
		t.Fatalf("no-overlap ingest landed L0=%d L1=%d, want L1 only", tr.NumFiles(0), tr.NumFiles(1))
	}

	// Overlapping batch must take the safe L0 path to preserve recency.
	if err := tr.Ingest(th, mk(50), 20); err != nil {
		t.Fatal(err)
	}
	if tr.NumFiles(0) == 0 {
		t.Fatalf("overlapping ingest skipped L0 (L0=%d L1=%d)", tr.NumFiles(0), tr.NumFiles(1))
	}

	// Newest-wins: the second batch's values shadow the first's.
	v, _, found, _, err := tr.Get(th, []byte("ing000010"), util.MaxSequence)
	if err != nil || !found {
		t.Fatalf("Get after ingest: %v found=%v", err, found)
	}
	if string(v) != "i10" {
		t.Fatalf("got %q", v)
	}
	if tr.LastSeq() < 20 {
		t.Fatalf("ingest did not advance lastSeq: %d", tr.LastSeq())
	}

	// The install is one manifest record: a reopen sees both batches whole.
	st := tr.GetStats()
	if st.Ingests != 2 || st.TablesIngested < 2 {
		t.Fatalf("stats: ingests=%d tables=%d", st.Ingests, st.TablesIngested)
	}
	m.Crash()
	m.Recover()
	th = m.NewThread(0) // the old boot's thread would store nothing
	tr2, err := Open(m, fs, manifest, Options{L0CompactionTrigger: 100}, th)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i += 9 {
		k := []byte(fmt.Sprintf("ing%06d", i))
		v, _, found, _, err := tr2.Get(th, k, util.MaxSequence)
		if err != nil || !found {
			t.Fatalf("lost %s after reopen: %v found=%v", k, err, found)
		}
		if string(v) != fmt.Sprintf("i%d", i) {
			t.Fatalf("reopened %s = %q", k, v)
		}
	}
}
