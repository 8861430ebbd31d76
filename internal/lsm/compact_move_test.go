package lsm

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

// flushRun flushes entries as one sorted run into L0 without compacting: the
// shape of an engine spill, several tables with disjoint key ranges.
func flushRun(t *testing.T, tr *Tree, th *hw.Thread, entries []testEntry) {
	t.Helper()
	it, maxSeq := memtableOf(entries)
	if err := tr.FlushNoCompact(th, it, maxSeq); err != nil {
		t.Fatal(err)
	}
}

// uniqueRun returns n point writes on keys first, first+step, ... with fresh
// sequence numbers and values padded to about valLen bytes.
func uniqueRun(first, step, n, valLen int, seq *uint64) []testEntry {
	es := make([]testEntry, n)
	for i := range es {
		*seq++
		k := first + i*step
		es[i] = testEntry{fmt.Sprintf("key%08d", k), *seq, util.KindValue, fmt.Sprintf("v%d-%0*d", *seq, valLen, k)}
	}
	return es
}

// placement maps every live file number to its level; it fails the test when
// a number sits at two levels.
func placement(t *testing.T, tr *Tree) map[uint64]int {
	t.Helper()
	tr.mu.RLock()
	defer tr.mu.RUnlock()
	at := map[uint64]int{}
	for lvl, files := range tr.levels {
		for _, f := range files {
			if prev, dup := at[f.Num]; dup {
				t.Errorf("file %d is at L%d and L%d", f.Num, prev, lvl)
			}
			at[f.Num] = lvl
		}
	}
	return at
}

// runJob picks and runs the next due job, as MaybeCompact's loop does, and
// hands the caller what the job held and what it did. ok is false when
// nothing is due.
func runJob(t *testing.T, tr *Tree, th *hw.Thread) (c *compaction, res compactResult, ok bool) {
	t.Helper()
	c = tr.pickCompaction()
	if c == nil {
		return nil, res, false
	}
	res, err := tr.compact(th, c)
	if err != nil {
		t.Fatal(err)
	}
	return c, res, true
}

// TestDisjointRunMovesWithoutRewrite: one spill-shaped run into an empty tree
// is re-levelled by manifest edits alone — no table byte read or written, the
// same file numbers now at L1 and L2 — and a reopen replays the placement.
func TestDisjointRunMovesWithoutRewrite(t *testing.T) {
	m, tr, th, manifest, fs := newEnv(t, smallOpts())
	seq := uint64(0)
	flushRun(t, tr, th, uniqueRun(0, 1, 900, 24, &seq))
	before := placement(t, tr)
	if len(before) < 8 {
		t.Fatalf("run made %d tables; want enough to overfill L1", len(before))
	}
	names, free := fs.List(), fs.FreeBytes()
	dev := m.PMem.Snapshot()

	if err := tr.MaybeCompact(th); err != nil {
		t.Fatal(err)
	}
	st := tr.GetStats()
	if st.CompactedBytes != 0 || st.TablesCompacted != 0 {
		t.Fatalf("compaction rewrote %d bytes of %d tables; a disjoint run into an empty tree needs none", st.CompactedBytes, st.TablesCompacted)
	}
	if st.Compactions == 0 || st.TablesMoved < int64(len(before)) {
		t.Fatalf("%d jobs moved %d tables, want every one of %d moved at least once", st.Compactions, st.TablesMoved, len(before))
	}
	if !reflect.DeepEqual(fs.List(), names) || fs.FreeBytes() != free {
		t.Fatalf("moves changed the filesystem: %v (free %d), was %v (free %d)", fs.List(), fs.FreeBytes(), names, free)
	}
	// Manifest records are the only bytes a move touches; the tables hold 50 KB.
	if d := m.PMem.Snapshot().Sub(dev); d.MediaReadB+d.CallerWriteB > 16<<10 {
		t.Fatalf("move-only jobs read %d and wrote %d device bytes", d.MediaReadB, d.CallerWriteB)
	}
	after := placement(t, tr)
	if len(after) != len(before) {
		t.Fatalf("%d tables after, %d before", len(after), len(before))
	}
	deep := 0
	for num, lvl := range after {
		if _, same := before[num]; !same {
			t.Fatalf("file %d appeared; moved tables keep their numbers", num)
		}
		if lvl == 0 {
			t.Fatalf("file %d still in L0", num)
		}
		if lvl >= 2 {
			deep++
		}
	}
	if deep == 0 {
		t.Fatal("no table reached L2; geometry too loose for the L1→L2 move to run")
	}
	_, _, moved := tr.CompactionLevelStats()
	if moved[1] == 0 || moved[2] == 0 {
		t.Fatalf("per-level moved bytes = %v, want L1 and L2 non-zero", moved)
	}
	checkLevelInvariants(t, tr)

	m.Crash()
	m.Recover()
	th = m.NewThread(0) // the old boot's thread would store nothing
	tr2, err := Open(m, fs, manifest, smallOpts(), th)
	if err != nil {
		t.Fatal(err)
	}
	if got := placement(t, tr2); !reflect.DeepEqual(got, after) {
		t.Fatalf("reopened placement %v, want %v", got, after)
	}
	if !reflect.DeepEqual(fs.List(), names) {
		t.Fatalf("orphan sweep changed the file set: %v, was %v", fs.List(), names)
	}
	for k := 0; k < 900; k += 7 {
		_, _, found, _, err := tr2.Get(th, []byte(fmt.Sprintf("key%08d", k)), util.MaxSequence)
		if err != nil || !found {
			t.Fatalf("key %d after reopen: found=%v err=%v", k, found, err)
		}
	}
}

// moveModel is the property test's reference: the visible value of every
// user key, and the structural facts checked after every round.
type moveModel struct {
	vals map[string]string
	at   map[uint64]int // placement at the previous check
}

// check holds the tree to the model. It runs after every round and after
// every write.
func (mm *moveModel) check(t *testing.T, tr *Tree, th *hw.Thread, rng *rand.Rand) {
	checkLevelInvariants(t, tr)
	at := placement(t, tr)
	// A table that moved (same number, deeper level) must be clear of every
	// neighbour, tombstone spans included: nothing that stayed or was written
	// beside it may reach into its range. (Between two outputs of one merge a
	// span may cross the cut, as it always could.)
	tr.mu.RLock()
	for lvl := 1; lvl < len(tr.levels); lvl++ {
		for i, f := range tr.levels[lvl] {
			if prev, seen := mm.at[f.Num]; !seen || prev >= lvl {
				continue
			}
			lo, hi := keyRange(tr.levels[lvl][i : i+1])
			for j, g := range tr.levels[lvl] {
				if glo, ghi := keyRange(tr.levels[lvl][j : j+1]); j != i && bytes.Compare(ghi, lo) >= 0 && bytes.Compare(glo, hi) <= 0 {
					t.Errorf("moved file %d [%q..%q] at L%d overlaps file %d [%q..%q]", f.Num, lo, hi, lvl, g.Num, glo, ghi)
				}
			}
		}
	}
	tr.mu.RUnlock()
	mm.at = at

	// The merged iterator, read the way a scan reads it.
	it := treeIterator(tr, th)
	defer it.Close()
	tombs := tr.RangeTombstones(nil, util.MaxSequence)
	got := map[string]string{}
	var last []byte
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := it.Key()
		if ik.Kind() == util.KindRangeDel || bytes.Equal(ik.UserKey(), last) {
			continue
		}
		last = append(last[:0], ik.UserKey()...)
		if ik.Kind() == util.KindValue && !covered(tombs, ik) {
			got[string(ik.UserKey())] = string(it.Value())
		}
	}
	if err := it.Err(); err != nil {
		t.Errorf("iterator: %v", err)
	}
	if !reflect.DeepEqual(got, mm.vals) {
		t.Errorf("iterator sees %d keys, model has %d", len(got), len(mm.vals))
	}
	for n := 0; n < 40; n++ {
		k := fmt.Sprintf("key%05d", rng.Intn(moveKeys))
		v, _, found, deleted, err := tr.Get(th, []byte(k), util.MaxSequence)
		want, live := mm.vals[k]
		if err != nil || (found && !deleted) != live || (live && string(v) != want) {
			t.Errorf("Get(%s) = %q found=%v deleted=%v err=%v; model %q live=%v", k, v, found, deleted, err, want, live)
		}
	}
}

const moveKeys = 3000

// TestPropertyMovesAndMergesMatchModel drives seeded random mixes of
// spill-shaped disjoint runs, runs that overlap what is already there, point
// deletes, range tombstones and ingests through compaction rounds of one and
// two jobs — after a write, one round, or every round until the tree
// settles — and after every round checks the tree's shape (L1+ sorted and
// disjoint, one level per file number, moved tables clear of their
// neighbours) and its contents (Get and the merged iterator) against a map.
func TestPropertyMovesAndMergesMatchModel(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("workers=%d/seed=%d", workers, seed), func(t *testing.T) {
				m, tr, th, _, _ := newEnv(t, smallOpts())
				rng := rand.New(rand.NewSource(seed))
				mm := &moveModel{vals: map[string]string{}, at: map[uint64]int{}}
				checkTh := m.NewThread(0)
				c := newCompactor(tr, workers, nil, func(err error) {
					if err != nil {
						t.Errorf("compaction failed: %v", err)
						return
					}
					mm.check(t, tr, checkTh, rng)
				})
				seq := uint64(0)
				write := func() (settle bool) {
					switch op := rng.Intn(10); {
					case op < 7: // a run: a window of the key space, a random share of its keys
						base, width := rng.Intn(moveKeys-600), 200+rng.Intn(400)
						var es []testEntry
						for _, off := range rng.Perm(width)[:width/2] {
							k := fmt.Sprintf("key%05d", base+off)
							seq++
							switch r := rng.Intn(20); {
							case r == 0:
								end := fmt.Sprintf("key%05d", base+off+1+rng.Intn(60))
								es = append(es, testEntry{k, seq, util.KindRangeDel, end})
								for dk := range mm.vals {
									if dk >= k && dk < end {
										delete(mm.vals, dk)
									}
								}
							case r < 4:
								es = append(es, testEntry{k, seq, util.KindDelete, ""})
								delete(mm.vals, k)
							default:
								v := fmt.Sprintf("v%d-%s", seq, bytes.Repeat([]byte{'x'}, rng.Intn(60)))
								es = append(es, testEntry{k, seq, util.KindValue, v})
								mm.vals[k] = v
							}
						}
						flushRun(t, tr, th, es)
					default: // an ingest: sorted unique keys, one sequence number
						base := rng.Intn(moveKeys - 300)
						seq++
						var batch []IngestEntry
						for k := base; k < base+300; k += 1 + rng.Intn(3) {
							key, v := fmt.Sprintf("key%05d", k), fmt.Sprintf("ing%d", seq)
							batch = append(batch, IngestEntry{Key: []byte(key), Value: []byte(v)})
							mm.vals[key] = v
						}
						if err := tr.Ingest(th, batch, seq); err != nil {
							t.Fatal(err)
						}
					}
					mm.check(t, tr, th, rng)
					return rng.Intn(3) == 0
				}
				for round := 0; round < 24 && !t.Failed(); round++ {
					if write() {
						c.settle(th)
					} else {
						c.round(th.Clock.Now())
					}
				}
				c.settle(th)
				st := tr.GetStats()
				if st.TablesMoved == 0 || st.TablesCompacted == 0 {
					t.Fatalf("moved %d tables, merged %d: the mix must exercise both", st.TablesMoved, st.TablesCompacted)
				}
			})
		}
	}
}

// TestTombstoneReachPullsItsNeighbourIntoTheJob: an L2 table whose range
// tombstone reaches past its last key over its neighbour's keys, and an L1 table
// that meets the tombstone's reach but not the neighbour. The merge's output
// spans all three tables, so the job must take the neighbour too, or the
// neighbour is left inside the output at L2. Two compaction workers found this
// one job in ten (TestPropertyMovesAndMergesMatchModel, workers=2).
func TestTombstoneReachPullsItsNeighbourIntoTheJob(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100, BaseLevelBytes: 1, MaxLevels: 4})
	installAt(t, tr, th, 2, []testEntry{
		{"key10", 1, util.KindValue, "a"}, {"key15", 2, util.KindRangeDel, "key40"}, {"key20", 3, util.KindValue, "b"},
	})
	installAt(t, tr, th, 2, []testEntry{{"key30", 4, util.KindValue, "c"}, {"key31", 5, util.KindValue, "d"}})
	installAt(t, tr, th, 1, []testEntry{{"key35", 6, util.KindValue, "e"}, {"key50", 7, util.KindValue, "f"}})
	c, _, ok := runJob(t, tr, th)
	if !ok || c.level != 1 || len(c.overlap) != 2 {
		t.Fatalf("job ran=%v at L%d took %d L2 tables, want the L1 table's job to take both", ok, c.level, len(c.overlap))
	}
	checkLevelInvariants(t, tr)
	for k, want := range map[string]string{"key10": "a", "key20": "b", "key30": "c", "key31": "d", "key35": "e", "key50": "f"} {
		if v, _, found, _, err := tr.Get(th, []byte(k), util.MaxSequence); err != nil || !found || string(v) != want {
			t.Errorf("Get(%s) = %q found=%v err=%v, want %q", k, v, found, err, want)
		}
	}
}

// TestMoveOnlyJobsDoNotAgeGraveyard: a scan opened before its tables were
// compacted away reads to the end although ten move-only jobs ran in between.
// The graveyard keeps a retired table for two retiring jobs; were a job that
// retires nothing to count, a burst of moves — microseconds each — would cut
// the grace period the lock-free scan relies on.
func TestMoveOnlyJobsDoNotAgeGraveyard(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, smallOpts())
	seq := uint64(0)
	// Two overlapping tables: the job that takes them must merge.
	flushRun(t, tr, th, uniqueRun(0, 2, 60, 24, &seq))
	flushRun(t, tr, th, uniqueRun(1, 2, 60, 24, &seq))
	it := treeIterator(tr, th) // lazy: no table is opened before the first Seek
	defer it.Close()
	if _, res, ok := runJob(t, tr, th); !ok || res.Inputs != 2 {
		t.Fatalf("first job merged %d tables (ran=%v), want the 2 the iterator holds", res.Inputs, ok)
	}
	// A second retiring job: the held tables are now one job from deletion.
	flushRun(t, tr, th, uniqueRun(100000, 2, 60, 24, &seq))
	flushRun(t, tr, th, uniqueRun(100001, 2, 60, 24, &seq))
	if _, res, ok := runJob(t, tr, th); !ok || res.Inputs != 2 {
		t.Fatalf("second job merged %d tables (ran=%v), want 2", res.Inputs, ok)
	}
	moves := 0
	for base := 200000; moves < 10; base += 100000 {
		flushRun(t, tr, th, uniqueRun(base, 1, 300, 24, &seq)) // a disjoint run in fresh key space
		for {
			_, res, ok := runJob(t, tr, th)
			if !ok {
				break
			}
			if res.Inputs != 0 || res.Moved == 0 {
				t.Fatalf("job %+v: want a move-only job", res)
			}
			moves++
		}
	}
	n := 0
	for it.SeekToFirst(); it.Valid(); it.Next() {
		n++
	}
	if err := it.Err(); err != nil || n != 120 {
		t.Fatalf("held iterator read %d rows, err %v; want 120 and none", n, err)
	}
}

// TestMergedComponentOutputsAreEven: a component's outputs split its bytes
// evenly, so when the merge drops nothing no output is a sliver — no table
// under TableFileSize/4 from inputs of at least TableFileSize. Sizes sweep
// across the points where a fixed TableFileSize cut leaves a short tail.
func TestMergedComponentOutputsAreEven(t *testing.T) {
	for n := 40; n <= 400; n += 15 {
		_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 2, BaseLevelBytes: 1 << 20, TableFileSize: 4 << 10})
		seq := uint64(0)
		// Interleaved keys: every table of one run overlaps the other run.
		flushRun(t, tr, th, uniqueRun(0, 2, n, 24, &seq))
		flushRun(t, tr, th, uniqueRun(1, 2, n, 24, &seq))
		_, res, ok := runJob(t, tr, th)
		if !ok || res.Components != 1 || res.Moved != 0 {
			t.Fatalf("n=%d: job %+v (ran=%v), want one merged component", n, res, ok)
		}
		if uint64(res.BytesIn) < tr.opts.TableFileSize {
			continue
		}
		for _, f := range tr.Files(1) {
			if f.Size < tr.opts.TableFileSize/4 {
				t.Errorf("n=%d: %d input bytes produced a %d-byte table (outputs %d)", n, res.BytesIn, f.Size, res.Outputs)
			}
		}
	}
}

// TestCompactionRewritesOnlyOverlap pins the write amplification of the fill
// shape: five spills of ten disjoint random-key tables each, compacted inline
// on one thread. No job may rewrite a table that overlapped nothing in it,
// and the bytes rewritten stay under a pinned figure (885 KB as written; the
// whole-job merge this replaced rewrote 1140 KB here).
func TestCompactionRewritesOnlyOverlap(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{
		L0CompactionTrigger: 4, BaseLevelBytes: 64 << 10, LevelMultiplier: 10, MaxLevels: 5, TableFileSize: 8 << 10,
	})
	rng := rand.New(rand.NewSource(16))
	seq := uint64(0)
	var user int64
	for run := 0; run < 5; run++ {
		var es []testEntry
		for _, k := range rng.Perm(1 << 20)[:1150] {
			seq++
			es = append(es, testEntry{fmt.Sprintf("key%08d", k), seq, util.KindValue, fmt.Sprintf("v%d-%040d", seq, k)})
		}
		flushRun(t, tr, th, es)
		if got := tr.NumFiles(0); got < 9 || got > 11 {
			t.Fatalf("run %d made %d tables, want about ten", run, got)
		}
		user += tr.LevelBytes(0)
		for {
			c, res, ok := runJob(t, tr, th)
			if !ok {
				break
			}
			at := placement(t, tr)
			rewritten := 0
			for _, comp := range components(append(append([]*FileMeta(nil), c.inputs...), c.overlap...)) {
				if len(comp) > 1 {
					rewritten += len(comp)
				} else if _, live := at[comp[0].Num]; !live {
					t.Errorf("job at L%d rewrote file %d, which overlapped nothing in the job", c.level, comp[0].Num)
				}
			}
			if res.Inputs != rewritten {
				t.Errorf("job at L%d rewrote %d tables, its overlap components hold %d", c.level, res.Inputs, rewritten)
			}
		}
		checkLevelInvariants(t, tr)
	}
	st := tr.GetStats()
	t.Logf("user bytes %d, rewritten %d, tables merged %d, moved %d", user, st.CompactedBytes, st.TablesCompacted, st.TablesMoved)
	const pinned = 925_000
	if st.CompactedBytes > pinned {
		t.Fatalf("compactions rewrote %d bytes for %d flushed, pinned at %d", st.CompactedBytes, user, pinned)
	}
}

// failingIter yields its source's first n entries and then fails, as a table
// with a corrupt block does in the middle of a merge.
type failingIter struct {
	Iterator
	n   int
	err error
}

func (f *failingIter) Valid() bool { return f.n > 0 && f.Iterator.Valid() }
func (f *failingIter) Next() {
	f.n--
	f.Iterator.Next()
}
func (f *failingIter) Err() error {
	if f.n == 0 {
		return f.err
	}
	return nil
}

// orphanReaders fails the test when the tree holds a reader of a table the
// filesystem does not: a write registers the reader of each table it finishes,
// and must take it back with the table when it fails.
func orphanReaders(t *testing.T, tr *Tree, fs *pmemfs.FS) {
	t.Helper()
	tr.readerMu.Lock()
	defer tr.readerMu.Unlock()
	for num := range tr.readers {
		if _, err := fs.Open(tableName(num)); err != nil {
			t.Errorf("a reader of table %d outlived it: %v", num, err)
		}
	}
}

// TestWrittenTablesOpenFromTheirWriter: the tree that wrote a table serves it
// through a reader built from the writer's own filter and index, so the
// table's first Get reads the lines of one lookup; a reopened tree (readers
// dropped) reads footer, filter and index back first.
func TestWrittenTablesOpenFromTheirWriter(t *testing.T) {
	m, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100, TableFileSize: 512 << 10})
	seq := uint64(0)
	es := uniqueRun(0, 1, 12000, 64, &seq)
	flushRun(t, tr, th, es)
	files := tr.Files(0)
	if len(files) < 2 || len(tr.readers) != len(files) {
		t.Fatalf("flushed %d tables, %d readers registered", len(files), len(tr.readers))
	}
	lineReads := func(e testEntry) int64 {
		t.Helper()
		before := m.Cache.Stats()
		v, _, found, _, err := tr.Get(th, []byte(e.ukey), util.MaxSequence)
		if err != nil || !found || string(v) != e.val {
			t.Fatalf("Get(%s) = %q found=%v err=%v", e.ukey, v, found, err)
		}
		after := m.Cache.Stats()
		return after.Hits + after.Misses - before.Hits - before.Misses
	}
	own := lineReads(es[10])
	if own > 16 {
		t.Errorf("the first Get of a table this tree wrote read %d cache lines, want one lookup's (about 9)", own)
	}
	dropReaders(tr)
	filterLines := int64(files[len(files)-1].Count) * 10 / 8 / 64
	if reopened := lineReads(es[20]); reopened < own+filterLines {
		t.Errorf("the first Get of a table opened from media read %d cache lines, want the %d of its filter besides the lookup's %d: the test is not measuring the open", reopened, filterLines, own)
	}
}

// TestFailedTableWriteLeavesNoFiles: a table write that fails — in the middle
// of a merge, or in a later component of a job — leaves the filesystem as it
// found it: no finished output, no open extent, no reservation.
func TestFailedTableWriteLeavesNoFiles(t *testing.T) {
	_, tr, th, _, fs := newEnv(t, smallOpts())
	seq := uint64(0)
	// Four L0 tables, two overlapping pairs far apart: a job of two
	// components that both merge.
	for _, first := range []int{0, 1, 100000, 100001} {
		flushRun(t, tr, th, uniqueRun(first, 2, 60, 24, &seq))
	}
	names, free := fs.List(), fs.FreeBytes()

	run, _ := memtableOf(uniqueRun(0, 1, 600, 24, &seq))
	boom := errors.New("media error")
	src := &failingIter{Iterator: run, n: 450, err: boom} // several tables in
	src.SeekToFirst()
	if metas, err := tr.writeTables(th, src, false, false, nil, tr.opts.TableFileSize); !errors.Is(err, boom) || metas != nil {
		t.Fatalf("writeTables = %v, %v; want the iterator's error and no tables", metas, err)
	}
	if !reflect.DeepEqual(fs.List(), names) || fs.FreeBytes() != free {
		t.Fatalf("failed write left files %v (free %d), was %v (free %d)", fs.List(), fs.FreeBytes(), names, free)
	}
	orphanReaders(t, tr, fs)

	// The job's second component cannot open an input: the first component's
	// finished outputs must go too.
	c := tr.pickCompaction()
	comps := components(c.inputs)
	if len(comps) != 2 || len(comps[0]) != 2 || len(comps[1]) != 2 {
		t.Fatalf("job splits into %d components, want two pairs", len(comps))
	}
	dropReaders(tr)
	if err := fs.Delete(th, tableName(comps[1][0].Num)); err != nil {
		t.Fatal(err)
	}
	names, free = fs.List(), fs.FreeBytes()
	if _, err := tr.compact(th, c); err == nil {
		t.Fatal("compaction over a missing input succeeded")
	}
	if !reflect.DeepEqual(fs.List(), names) || fs.FreeBytes() != free {
		t.Fatalf("failed job left files %v (free %d), was %v (free %d)", fs.List(), fs.FreeBytes(), names, free)
	}
	orphanReaders(t, tr, fs)
	if len(tr.compacting) != 0 {
		t.Fatalf("failed job kept %d files reserved", len(tr.compacting))
	}
}

// TestSchedulerClosesTraceOnJobError: a job that fails still emits the
// compact_end matching its compact_start, with the error and the ns attr the
// ledger reads, before its round reports the error.
func TestSchedulerClosesTraceOnJobError(t *testing.T) {
	_, tr, th, _, fs := newEnv(t, smallOpts())
	seq := uint64(0)
	flushRun(t, tr, th, uniqueRun(0, 2, 60, 24, &seq))
	flushRun(t, tr, th, uniqueRun(1, 2, 60, 24, &seq))
	dropReaders(tr)
	if err := fs.Delete(th, tableName(tr.Files(0)[0].Num)); err != nil {
		t.Fatal(err)
	}
	trace := obs.NewTrace(64)
	var failed error
	endsAtError := -1
	c := newCompactor(tr, 1, trace, func(err error) {
		if err == nil {
			return
		}
		failed = err
		endsAtError = 0
		for _, e := range trace.Events() {
			if e.Type == "compact_end" {
				endsAtError++
			}
		}
	})
	c.settle(th)
	if failed == nil || endsAtError != 1 {
		t.Fatalf("error hook saw err=%v with %d compact_end events; want the error after exactly one", failed, endsAtError)
	}
	var types []string
	for _, e := range trace.Events() {
		types = append(types, e.Type)
		if e.Type == "compact_end" {
			if _, ok := e.Attrs["ns"]; !ok || e.Attrs["err"] != failed.Error() {
				t.Errorf("compact_end attrs %v, want ns and err=%q", e.Attrs, failed)
			}
		}
	}
	sort.Strings(types)
	if want := []string{"compact_end", "compact_start"}; !reflect.DeepEqual(types, want) {
		t.Fatalf("trace holds %v, want %v", types, want)
	}
}

// TestFlushCutsInsideHotKey: tables are cut between user keys, but a flush
// keeps every version, so one key rewritten past the file's capacity must
// still be cut — and every key, the hot one included, reads its newest value.
func TestFlushCutsInsideHotKey(t *testing.T) {
	_, tr, th, _, _ := newEnv(t, Options{L0CompactionTrigger: 100, TableFileSize: 1 << 20})
	var es []testEntry
	seq := uint64(0)
	for _, k := range []string{"cold-a", "hot", "warm-z"} {
		versions := 1
		if k == "hot" {
			versions = 3000 // 3 MiB of one user key, the file holds 1.75 MiB
		}
		for v := 0; v < versions; v++ {
			seq++
			es = append(es, testEntry{k, seq, util.KindValue, fmt.Sprintf("%d-%01000d", seq, 0)})
		}
	}
	flushRun(t, tr, th, es)
	files := tr.Files(0)
	if len(files) < 3 {
		t.Fatalf("3 MiB flushed into %d tables", len(files))
	}
	for _, f := range files {
		if f.Size > tr.opts.TableFileSize*3/2 {
			t.Errorf("table %d is %d bytes, over 1.5 tables", f.Num, f.Size)
		}
	}
	for k, want := range map[string]uint64{"cold-a": 1, "hot": 3001, "warm-z": 3002} {
		v, s, found, _, err := tr.Get(th, []byte(k), util.MaxSequence)
		if err != nil || !found || s != want || !bytes.HasPrefix(v, []byte(fmt.Sprintf("%d-", want))) {
			t.Errorf("Get(%s) seq %d found=%v err=%v, want seq %d", k, s, found, err, want)
		}
	}
}
