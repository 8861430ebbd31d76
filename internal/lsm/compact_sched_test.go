package lsm

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
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

// compactor runs a tree's compactions as an engine does: rounds of up to
// one job per thread, booked on a server of one per thread, until nothing is
// due. onRound sees each round's outcome; after an error it runs no more
// rounds, as a failed engine does.
type compactor struct {
	tr      *Tree
	ths     []*hw.Thread
	server  *sim.ServerPool
	trace   *obs.Trace
	onRound func(err error)
	failed  bool
}

func newCompactor(tr *Tree, workers int, trace *obs.Trace, onRound func(err error)) *compactor {
	c := &compactor{tr: tr, server: sim.NewServerPool(workers), trace: trace, onRound: onRound}
	for range workers {
		c.ths = append(c.ths, tr.m.NewThread(0))
	}
	return c
}

// round runs one round at virtual time at and reports whether a job ran and
// none failed.
func (c *compactor) round(at int64) bool {
	if c.failed {
		return false
	}
	_, ran, err := c.tr.CompactRound(c.ths, at, c.server, c.trace)
	if ran && c.onRound != nil {
		c.onRound(err)
	}
	c.failed = err != nil
	return ran && !c.failed
}

// settle runs rounds from th's clock until nothing is due, as an engine's
// FlushAll does.
func (c *compactor) settle(th *hw.Thread) {
	for c.round(th.Clock.Now()) {
	}
}

// checkLevelInvariants asserts every level >= 1 holds sorted, disjoint
// user-key ranges — the invariant the L1+ overlap-set fix protects. A pick
// that misses same-level or next-level overlapping inputs installs outputs
// that violate exactly this. It reports with Errorf, so that a round's hook
// calling it lets the round finish.
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

// TestSchedulerDrainsDebt: rounds of two jobs run after each flush, as the
// engine's spills run them, leave no debt and no job running, and the
// newest version of every key survives the cascade.
func TestSchedulerDrainsDebt(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	c := newCompactor(tr, 2, nil, func(err error) {
		if err != nil {
			t.Errorf("compaction failed: %v", err)
		}
		checkLevelInvariants(t, tr)
	})

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
		c.settle(th)
	}

	if debt := tr.CompactionDebt(); debt != 0 {
		t.Fatalf("rounds left %d bytes of debt", debt)
	}
	if jobs, _ := c.server.Stats(); jobs == 0 {
		t.Fatal("no job ran despite L0 debt")
	}
	if tr.RoundJobs() != 0 || tr.DueLevels() != 0 {
		t.Fatalf("a settled tree reports round jobs=%d due=%d", tr.RoundJobs(), tr.DueLevels())
	}
	// Newest generation of every key survives the cascade.
	for i := 0; i < 700; i += 11 {
		k := []byte(fmt.Sprintf("key%08d", i))
		_, _, found, deleted, err := tr.Get(th, k, util.MaxSequence)
		if err != nil {
			t.Fatal(err)
		}
		if !found || deleted {
			t.Fatalf("lost %s after compaction", k)
		}
	}
}

// TestSchedulerStopsOnStickyError: a round stops at its first failed job.
// Of twoDisjointJobs' two jobs the first, the L1 merge, finds its L2 input
// gone, so a round on two threads picks both and runs the failing one first:
// it returns the error, books one job, and runs and reserves nothing of the
// other, which the engine's fail then makes the last round.
func TestSchedulerStopsOnStickyError(t *testing.T) {
	tr, th, fs := twoDisjointJobs(t)
	dropReaders(tr)
	if err := fs.Delete(th, tableName(tr.Files(2)[0].Num)); err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace(64)
	c := newCompactor(tr, 2, trace, nil)
	_, ran, err := tr.CompactRound(c.ths, th.Clock.Now(), c.server, trace)
	if !ran || err == nil {
		t.Fatalf("round ran=%v err=%v, want the L1 job's error", ran, err)
	}
	if jobs, _ := c.server.Stats(); jobs != 1 {
		t.Fatalf("the round booked %d jobs, want only the failed one", jobs)
	}
	var levels []any
	for _, e := range trace.Events() {
		if e.Type == "compact_start" {
			levels = append(levels, e.Attrs["level"])
		}
	}
	if len(levels) != 1 || levels[0] != 1 {
		t.Fatalf("round started jobs at levels %v, want only L1's", levels)
	}
	if tr.NumFiles(0) != 2 || len(tr.compacting) != 0 || tr.RoundJobs() != 0 {
		t.Fatalf("after the round: %d L0 tables, %d files reserved, %d round jobs; want 2, 0, 0",
			tr.NumFiles(0), len(tr.compacting), tr.RoundJobs())
	}
}

// twoDisjointJobs builds a tree on which two disjoint jobs are due at once:
// an L1 table that merges with its L2 overlap (picked first: L1's score is
// the highest), and two overlapping L0 tables below both.
func twoDisjointJobs(t *testing.T) (*Tree, *hw.Thread, *pmemfs.FS) {
	t.Helper()
	_, tr, th, _, fs := newEnv(t, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1, MaxLevels: 4})
	installAt(t, tr, th, 2, []testEntry{{"key50", 1, util.KindValue, "a"}, {"key60", 2, util.KindValue, "b"}})
	installAt(t, tr, th, 1, []testEntry{{"key55", 3, util.KindValue, "c"}, {"key65", 4, util.KindValue, "d"}})
	seq := uint64(10)
	flushRun(t, tr, th, uniqueRun(0, 2, 10, 8, &seq)) // key00000000..: below L1 and L2
	flushRun(t, tr, th, uniqueRun(1, 2, 10, 8, &seq))
	return tr, th, fs
}

// TestRoundJobsRunSideBySide: a round on two threads runs both disjoint jobs
// from one start, the later of the calling event and the previous round's
// end, and ends when its longer job does; the next round, though called at
// an earlier instant, starts at that end.
func TestRoundJobsRunSideBySide(t *testing.T) {
	tr, _, _ := twoDisjointJobs(t)
	trace := obs.NewTrace(64)
	c := newCompactor(tr, 2, trace, nil)
	c.ths[1].Clock.AdvanceTo(5_000) // the previous round ended here
	done, ran, err := tr.CompactRound(c.ths, 1_000, c.server, trace)
	if !ran || err != nil {
		t.Fatalf("round ran=%v err=%v", ran, err)
	}
	var starts, ends []int64
	for _, e := range trace.Events() {
		switch e.Type {
		case "compact_start":
			starts = append(starts, e.VNs)
		case "compact_end":
			ends = append(ends, e.VNs)
		}
	}
	if len(starts) != 2 || starts[0] != 5_000 || starts[1] != 5_000 {
		t.Fatalf("jobs started at %v, want two at 5000", starts)
	}
	if want := max(ends[0], ends[1]); done != want || ends[0] == ends[1] {
		t.Fatalf("round ended at %d, jobs at %v: want the later of two different ends", done, ends)
	}
	if _, ran, _ := tr.CompactRound(c.ths, 0, c.server, trace); !ran {
		t.Fatal("the L2 job the merge left due did not run")
	}
	if next := trace.Events()[4].VNs; next != done {
		t.Fatalf("the next round started at %d, want the previous round's end %d", next, done)
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

// TestConcurrentScansDuringScheduledCompactions is the -race exercise: the
// test goroutine flushes and runs compaction rounds, as an engine's flush
// worker does, while reader goroutines continuously open iterators and scan. Every scan must observe a complete
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
	c := newCompactor(tr, 2, nil, func(err error) {
		if err != nil {
			t.Errorf("compaction failed: %v", err)
		}
	})

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

	c.settle(th)
	flushWave(1)
	c.settle(th)
	close(stop)
	wg.Wait()

	if jobs, _ := c.server.Stats(); jobs == 0 {
		t.Fatal("no compaction ran during the scan workload")
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
