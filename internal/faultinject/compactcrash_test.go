package faultinject

import (
	"bytes"
	"fmt"
	"os"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/lsm"
	"cachekv/internal/pmemfs"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// The compaction/ingest crash family drives a bare lsm.Tree through flushes,
// a range-tombstone flush, compaction cascades, and an external-SST ingest —
// all from the single workload thread, so the persistence-op stream stays
// deterministic (the background scheduler would break event numbering; the
// scheduler runs the same compact() code path this family crashes). The
// oracle checks the manifest's all-or-nothing contract: after a crash at any
// event, recovery must observe exactly the file set from before or after the
// in-flight step — compactions may never change logical content, and a
// flush/ingest is either fully visible or fully absent.

func ckTreeOpts() lsm.Options {
	return lsm.Options{
		L0CompactionTrigger: 2,
		BaseLevelBytes:      8 << 10,
		LevelMultiplier:     4,
		MaxLevels:           4,
		TableFileSize:       4 << 10,
		BlockCacheBytes:     -1, // every read hits PMem: no DRAM cache state
	}
}

type ckIter struct{ it *skiplist.Iterator }

func (m *ckIter) Valid() bool              { return m.it.Valid() }
func (m *ckIter) SeekToFirst()             { m.it.SeekToFirst() }
func (m *ckIter) Seek(ik util.InternalKey) { m.it.Seek(ik, nil) }
func (m *ckIter) Next()                    { m.it.Next() }
func (m *ckIter) Key() util.InternalKey    { return util.InternalKey(m.it.Key()) }
func (m *ckIter) Value() []byte            { return m.it.Value() }
func (m *ckIter) Err() error               { return nil }
func (m *ckIter) Close()                   {}

func ckCmp(a, b []byte) int {
	return util.CompareInternal(util.InternalKey(a), util.InternalKey(b))
}

func ckKey(j int) []byte { return []byte(fmt.Sprintf("key%04d", j)) }
func ckIngKey(j int) []byte {
	return []byte(fmt.Sprintf("zig%04d", j)) // sorts after every ckKey
}

const (
	ckFlushes      = 4
	ckKeysPerFlush = 24
	ckFlushStride  = 12 // overlapping flushes: i*12 .. i*12+23
	ckRdelSeq      = 5000
	ckRdelLo       = 6
	ckRdelHi       = 18
	ckIngestN      = 20
	ckIngestSeq    = 6000
	ckNumKeys      = (ckFlushes-1)*ckFlushStride + ckKeysPerFlush
)

func ckSeq(i, j int) uint64 { return uint64(1 + i*100 + j) }

// ckStep indices: 0..3 flushes, 4 rdel, 5 compact1, 6 ingest, 7 compact2.
const (
	ckStepRdel     = ckFlushes
	ckStepCompact1 = ckFlushes + 1
	ckStepIngest   = ckFlushes + 2
	ckStepCompact2 = ckFlushes + 3
	ckNumSteps     = ckFlushes + 4
)

func ckStepName(i int) string {
	switch {
	case i < ckFlushes:
		return fmt.Sprintf("flush%d", i)
	case i == ckStepRdel:
		return "rdel"
	case i == ckStepCompact1:
		return "compact1"
	case i == ckStepIngest:
		return "ingest"
	default:
		return "compact2"
	}
}

func ckFlush(tr *lsm.Tree, th *hw.Thread, i int) error {
	l := skiplist.New(ckCmp, 1)
	var maxSeq uint64
	for j := i * ckFlushStride; j < i*ckFlushStride+ckKeysPerFlush; j++ {
		s := ckSeq(i, j)
		ik := util.MakeInternalKey(nil, ckKey(j), s, util.KindValue)
		l.Insert(ik, []byte(fmt.Sprintf("f%d-%d", i, j)), nil)
		if s > maxSeq {
			maxSeq = s
		}
	}
	return tr.FlushNoCompact(th, &ckIter{it: l.NewIterator()}, maxSeq)
}

func ckRunStep(tr *lsm.Tree, th *hw.Thread, step int, frozen func() bool) error {
	switch {
	case step < ckFlushes:
		return ckFlush(tr, th, step)
	case step == ckStepRdel:
		l := skiplist.New(ckCmp, 1)
		ik := util.MakeInternalKey(nil, ckKey(ckRdelLo), ckRdelSeq, util.KindRangeDel)
		l.Insert(ik, ckKey(ckRdelHi), nil)
		return tr.Flush(th, &ckIter{it: l.NewIterator()}, ckRdelSeq)
	case step == ckStepIngest:
		var es []lsm.IngestEntry
		for j := 0; j < ckIngestN; j++ {
			es = append(es, lsm.IngestEntry{Key: ckIngKey(j), Value: []byte(fmt.Sprintf("ing-%d", j))})
		}
		return tr.Ingest(th, es, ckIngestSeq)
	default: // compact steps: drain all due work
		for n := 0; n < 64; n++ {
			if frozen != nil && frozen() {
				return nil
			}
			if err := tr.MaybeCompact(th); err != nil {
				return err
			}
			if tr.CompactionDebt() == 0 {
				return nil
			}
		}
		return fmt.Errorf("compaction debt never drained")
	}
}

// ckOpen allocates the tree's regions on m and opens it. The region handles
// must be reused for the post-crash reopen (same machine, same addresses).
func ckOpen(m *hw.Machine, th *hw.Thread, opts lsm.Options) (*lsm.Tree, hw.Region, hw.Region, error) {
	fsRegion := m.Alloc("ckfs", 64<<20, 0)
	manifest := m.Alloc("ckmanifest", 4<<20, 0)
	fs, err := pmemfs.Mount(m, fsRegion, th)
	if err != nil {
		return nil, fsRegion, manifest, err
	}
	tr, err := lsm.Open(m, fs, manifest, opts, th)
	return tr, fsRegion, manifest, err
}

// ckMarks runs the workload uncrashed under a counting gate and returns the
// cumulative event count at the end of each step plus the stream hash.
func ckMarks(t *testing.T, domain cache.Domain) ([]int64, uint64) {
	t.Helper()
	m := NewMachine(domain)
	th := m.NewThread(0)
	tr, _, _, err := ckOpen(m, th, ckTreeOpts())
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector()
	inj.Arm(0, FaultNone, 0)
	m.SetMemGate(inj.Gate)
	marks := make([]int64, ckNumSteps)
	for i := 0; i < ckNumSteps; i++ {
		if err := ckRunStep(tr, th, i, nil); err != nil {
			t.Fatalf("%s/%s failed uncrashed: %v", domain, ckStepName(i), err)
		}
		marks[i] = inj.Events()
	}
	m.SetMemGate(nil)
	return marks, inj.StreamHash()
}

// ckExpect returns the expected visibility of every key given which steps
// applied. applied[i] is meaningful only for flush/rdel/ingest steps;
// compactions never change logical content.
type ckView struct {
	vals map[string]string // expected visible key -> value
}

func ckExpect(applied [ckNumSteps]bool) ckView {
	v := ckView{vals: make(map[string]string)}
	for j := 0; j < ckNumKeys; j++ {
		for i := ckFlushes - 1; i >= 0; i-- {
			if applied[i] && j >= i*ckFlushStride && j < i*ckFlushStride+ckKeysPerFlush {
				v.vals[string(ckKey(j))] = fmt.Sprintf("f%d-%d", i, j)
				break
			}
		}
	}
	if applied[ckStepRdel] {
		for j := ckRdelLo; j < ckRdelHi; j++ {
			delete(v.vals, string(ckKey(j)))
		}
	}
	if applied[ckStepIngest] {
		for j := 0; j < ckIngestN; j++ {
			v.vals[string(ckIngKey(j))] = fmt.Sprintf("ing-%d", j)
		}
	}
	return v
}

// ckMatches checks the recovered tree against one expected view; it returns
// a description of the first mismatch, or "".
func ckMatches(tr *lsm.Tree, th *hw.Thread, v ckView) string {
	check := func(k []byte, want string, wantFound bool) string {
		val, _, found, deleted, err := tr.Get(th, k, util.MaxSequence)
		if err != nil {
			return fmt.Sprintf("Get(%s): %v", k, err)
		}
		visible := found && !deleted
		if visible != wantFound {
			return fmt.Sprintf("%s: visible=%v want %v", k, visible, wantFound)
		}
		if wantFound && string(val) != want {
			return fmt.Sprintf("%s: %q want %q", k, val, want)
		}
		return ""
	}
	for j := 0; j < ckNumKeys; j++ {
		k := ckKey(j)
		want, ok := v.vals[string(k)]
		if msg := check(k, want, ok); msg != "" {
			return msg
		}
	}
	for j := 0; j < ckIngestN; j++ {
		k := ckIngKey(j)
		want, ok := v.vals[string(k)]
		if msg := check(k, want, ok); msg != "" {
			return msg
		}
	}
	return ""
}

// ckRunOne executes one (domain, crashAt, fault) schedule of the family and
// returns a violation description, or "".
func ckRunOne(domain cache.Domain, marks []int64, crashAt int64, fault Fault) string {
	m := NewMachine(domain)
	th := m.NewThread(0)
	tr, fsRegion, manifest, err := ckOpen(m, th, ckTreeOpts())
	if err != nil {
		return fmt.Sprintf("initial open: %v", err)
	}
	inj := NewInjector()
	inj.Arm(crashAt, fault, scheduleSeed(97, crashAt, fault))
	m.SetMemGate(inj.Gate)
	for i := 0; i < ckNumSteps && !inj.Frozen(); i++ {
		if err := ckRunStep(tr, th, i, inj.Frozen); err != nil && !inj.Frozen() {
			return fmt.Sprintf("step %s failed before the crash point: %v", ckStepName(i), err)
		}
	}
	if !inj.Frozen() {
		return fmt.Sprintf("crash point %d never reached", crashAt)
	}
	m.Crash()
	m.SetMemGate(nil)
	m.Recover()

	th2 := m.NewThread(0)
	fs2, err := pmemfs.Mount(m, fsRegion, th2)
	if err != nil {
		return fmt.Sprintf("remount after crash: %v", err)
	}
	tr2, err := lsm.Open(m, fs2, manifest, ckTreeOpts(), th2)
	if err != nil {
		return fmt.Sprintf("reopen after crash: %v", err)
	}

	// Structural invariant first: L1+ levels sorted and disjoint.
	for lvl := 1; lvl < ckTreeOpts().MaxLevels; lvl++ {
		files := tr2.Files(lvl)
		for i := 1; i < len(files); i++ {
			if bytes.Compare(files[i-1].Largest.UserKey(), files[i].Smallest.UserKey()) >= 0 {
				return fmt.Sprintf("recovered L%d overlaps: %q..%q vs %q..%q", lvl,
					files[i-1].Smallest.UserKey(), files[i-1].Largest.UserKey(),
					files[i].Smallest.UserKey(), files[i].Largest.UserKey())
			}
		}
	}

	// Events 1..crashAt-1 are durable: steps with marks[i] < crashAt
	// completed; the step containing crashAt is in-flight and may appear
	// fully applied or fully absent — never partially.
	var applied [ckNumSteps]bool
	inflight := -1
	for i := 0; i < ckNumSteps; i++ {
		if marks[i] < crashAt {
			applied[i] = true
		} else {
			inflight = i
			break
		}
	}
	if msg := ckMatches(tr2, th2, ckExpect(applied)); msg == "" {
		return ""
	}
	if inflight >= 0 {
		withStep := applied
		withStep[inflight] = true
		if msg := ckMatches(tr2, th2, ckExpect(withStep)); msg == "" {
			return ""
		}
	}
	// Neither hypothesis matches: re-run the old-state check to report it.
	msg := ckMatches(tr2, th2, ckExpect(applied))
	return fmt.Sprintf("in-flight step %s neither fully applied nor fully absent: %s",
		ckStepName(max(inflight, 0)), msg)
}

// TestCompactIngestCrashDeterminism re-measures the family's event stream:
// identical totals and stream hashes are the precondition for every crash
// point below meaning the same thing twice.
func TestCompactIngestCrashDeterminism(t *testing.T) {
	for _, domain := range bothDomains {
		m1, h1 := ckMarks(t, domain)
		m2, h2 := ckMarks(t, domain)
		if h1 != h2 || m1[ckNumSteps-1] != m2[ckNumSteps-1] {
			t.Errorf("%s: event stream not deterministic: (%d, %#x) vs (%d, %#x)",
				domain, m1[ckNumSteps-1], h1, m2[ckNumSteps-1], h2)
		}
	}
}

// TestCompactIngestCrashSweep is the bounded CI member of the family: a
// stride sample of crash points (always including each step's boundary
// events) under both domains for the none and torn fault modes.
func TestCompactIngestCrashSweep(t *testing.T) {
	target := 80
	if testing.Short() {
		target = 20
	}
	runCompactIngestSweep(t, target)
}

// TestCompactIngestCrashExhaustive enumerates every crash point. Opt in with
//
//	CRASHSWEEP_EXHAUSTIVE=1 go test ./internal/faultinject -run TestCompactIngestCrashExhaustive -timeout 30m
func TestCompactIngestCrashExhaustive(t *testing.T) {
	if os.Getenv("CRASHSWEEP_EXHAUSTIVE") == "" {
		t.Skip("set CRASHSWEEP_EXHAUSTIVE=1 to enumerate every crash point")
	}
	runCompactIngestSweep(t, -1)
}

func runCompactIngestSweep(t *testing.T, target int) {
	t.Helper()
	for _, domain := range bothDomains {
		marks, _ := ckMarks(t, domain)
		total := marks[ckNumSteps-1]
		points := map[int64]bool{1: true, 2: true, total - 1: true, total: true}
		for _, mk := range marks {
			// Step boundaries: the last event of each step and the first of
			// the next are where torn manifest records concentrate.
			for _, k := range []int64{mk - 1, mk, mk + 1} {
				if k >= 1 && k <= total {
					points[k] = true
				}
			}
		}
		if target < 0 {
			for k := int64(1); k <= total; k++ {
				points[k] = true
			}
		} else {
			stride := total / int64(target)
			if stride < 1 {
				stride = 1
			}
			for k := int64(1); k <= total; k += stride {
				points[k] = true
			}
		}
		runs := 0
		for k := range points {
			for _, fault := range []Fault{FaultNone, FaultTorn} {
				if msg := ckRunOne(domain, marks, k, fault); msg != "" {
					t.Errorf("compact/ingest crash %s/%d/%s: %s", domain, k, fault, msg)
				}
				runs++
			}
		}
		t.Logf("%s: %d schedules over %d events", domain, runs, total)
	}
}

// The move-and-merge schedule: one compaction job that does everything a job
// can do — merges an overlapping pair, moves two lone tables from L0 to L1 by
// the manifest record alone, leaves two L1 tables inside its hull where they
// are, and, being the third job to retire tables, deletes the first job's
// from the graveyard — with the crash point on each of its persistence ops.
// Every key was flushed (acknowledged) before the job, so whatever the crash
// leaves, every key reads back.

func mvTreeOpts() lsm.Options {
	opts := ckTreeOpts()
	opts.BaseLevelBytes = 1 << 20 // L1 never over its limit: L0 jobs only
	return opts
}

// mvRuns are the flushed runs, in order: two pairs that each merge into an L1
// table (setup jobs one and two), then the job under test's four L0 tables —
// an overlapping pair and two lone tables either side of the L1 tables.
var mvRuns = []struct{ first, step int }{
	{20000, 2}, {20001, 2}, // -> L1, stays
	{30000, 2}, {30001, 2}, // -> L1, stays
	{0, 2}, {1, 2}, // merges
	{10000, 1}, // moves
	{40000, 1}, // moves
}

const mvRunKeys = 50

func mvKey(run, i int) []byte {
	return []byte(fmt.Sprintf("key%06d", mvRuns[run].first+i*mvRuns[run].step))
}

func mvFlush(tr *lsm.Tree, th *hw.Thread, run int) error {
	l := skiplist.New(ckCmp, 1)
	var seq uint64
	for i := 0; i < mvRunKeys; i++ {
		seq = uint64(1 + run*mvRunKeys + i)
		l.Insert(util.MakeInternalKey(nil, mvKey(run, i), seq, util.KindValue), []byte(fmt.Sprintf("r%d-%d", run, i)), nil)
	}
	return tr.FlushNoCompact(th, &ckIter{it: l.NewIterator()}, seq)
}

// mvSetup flushes every run and compacts after the second and the fourth,
// leaving the job under test due.
func mvSetup(tr *lsm.Tree, th *hw.Thread) error {
	for run := range mvRuns {
		if err := mvFlush(tr, th, run); err != nil {
			return err
		}
		if run == 1 || run == 3 {
			if err := tr.MaybeCompact(th); err != nil {
				return err
			}
		}
	}
	return nil
}

// mvLive returns the tree's file names and a violation if a number sits at two
// levels or a sorted level overlaps.
func mvLive(tr *lsm.Tree) (map[string]bool, string) {
	live := map[string]bool{}
	for lvl := 0; lvl < mvTreeOpts().MaxLevels; lvl++ {
		files := tr.Files(lvl)
		for i, f := range files {
			name := fmt.Sprintf("%06d.sst", f.Num)
			if live[name] {
				return nil, fmt.Sprintf("table %s is at two levels", name)
			}
			live[name] = true
			if lvl > 0 && i > 0 && bytes.Compare(files[i-1].Largest.UserKey(), f.Smallest.UserKey()) >= 0 {
				return nil, fmt.Sprintf("L%d overlaps at %q", lvl, f.Smallest.UserKey())
			}
		}
	}
	return live, ""
}

func mvCheckKeys(tr *lsm.Tree, th *hw.Thread) string {
	for run := range mvRuns {
		for i := 0; i < mvRunKeys; i++ {
			v, _, found, deleted, err := tr.Get(th, mvKey(run, i), util.MaxSequence)
			if want := fmt.Sprintf("r%d-%d", run, i); err != nil || !found || deleted || string(v) != want {
				return fmt.Sprintf("acked %s = %q found=%v deleted=%v err=%v, want %q", mvKey(run, i), v, found, deleted, err, want)
			}
		}
	}
	return ""
}

// mvMeasure runs setup and the job uncrashed and returns the event numbers of
// the job's first and last persistence op.
func mvMeasure(t *testing.T, domain cache.Domain) (first, last int64) {
	t.Helper()
	m := NewMachine(domain)
	th := m.NewThread(0)
	tr, _, _, err := ckOpen(m, th, mvTreeOpts())
	if err != nil {
		t.Fatal(err)
	}
	inj := NewInjector()
	inj.Arm(0, FaultNone, 0)
	m.SetMemGate(inj.Gate)
	if err := mvSetup(tr, th); err != nil {
		t.Fatal(err)
	}
	before, setupEvents := tr.GetStats(), inj.Events()
	if err := tr.MaybeCompact(th); err != nil {
		t.Fatal(err)
	}
	m.SetMemGate(nil)
	st := tr.GetStats()
	if jobs, merged, moved := st.Compactions-before.Compactions, st.TablesCompacted-before.TablesCompacted, st.TablesMoved-before.TablesMoved; jobs != 1 || merged != 2 || moved != 2 || before.Compactions != 2 {
		t.Fatalf("%s: the schedule ran %d jobs after %d, merging %d tables and moving %d; want one job after two, 2 merged and 2 moved",
			domain, jobs, before.Compactions, merged, moved)
	}
	if tr.NumFiles(0) != 0 || tr.NumFiles(1) != 5 {
		t.Fatalf("%s: job left L0=%d L1=%d, want 0 and 5 (two kept, two moved, one merged)", domain, tr.NumFiles(0), tr.NumFiles(1))
	}
	return setupEvents + 1, inj.Events()
}

// mvRunOne crashes the job at event crashAt and checks the recovered tree.
func mvRunOne(domain cache.Domain, crashAt int64, fault Fault) string {
	m := NewMachine(domain)
	th := m.NewThread(0)
	tr, fsRegion, manifest, err := ckOpen(m, th, mvTreeOpts())
	if err != nil {
		return fmt.Sprintf("initial open: %v", err)
	}
	inj := NewInjector()
	inj.Arm(crashAt, fault, scheduleSeed(131, crashAt, fault))
	m.SetMemGate(inj.Gate)
	if err := mvSetup(tr, th); err != nil || inj.Frozen() {
		return fmt.Sprintf("setup: err=%v frozen=%v before the job", err, inj.Frozen())
	}
	if err := tr.MaybeCompact(th); err != nil && !inj.Frozen() {
		return fmt.Sprintf("job failed before the crash point: %v", err)
	}
	if !inj.Frozen() {
		return "crash point never reached"
	}
	m.Crash()
	m.SetMemGate(nil)
	flipMedia(m, inj)
	m.Recover()

	th2 := m.NewThread(0)
	fs2, err := pmemfs.Mount(m, fsRegion, th2)
	var tr2 *lsm.Tree
	if err == nil {
		tr2, err = lsm.Open(m, fs2, manifest, mvTreeOpts(), th2)
	}
	if err != nil {
		if fault == FaultFlip {
			return "" // refusing to mount corrupted metadata is honest
		}
		return fmt.Sprintf("reopen after crash: %v", err)
	}
	live, msg := mvLive(tr2)
	if msg != "" {
		return msg
	}
	// The orphan sweep leaves exactly the live tables: it deleted none of
	// them and kept nothing else (unmanifested outputs, graveyarded inputs).
	names := fs2.List()
	if len(names) != len(live) {
		return fmt.Sprintf("after recovery the filesystem holds %v, the version %d tables", names, len(live))
	}
	for _, name := range names {
		if !live[name] {
			return fmt.Sprintf("orphan %s survived the sweep; live set %v", name, names)
		}
	}
	if msg := mvCheckKeys(tr2, th2); msg != "" {
		return msg
	}
	// The recovered tree finishes (or reruns) the job and still holds every key.
	if err := tr2.MaybeCompact(th2); err != nil {
		return fmt.Sprintf("compaction after recovery: %v", err)
	}
	if _, msg := mvLive(tr2); msg != "" {
		return "after the rerun: " + msg
	}
	if tr2.NumFiles(0) != 0 {
		return fmt.Sprintf("L0 holds %d tables after the rerun", tr2.NumFiles(0))
	}
	return mvCheckKeys(tr2, th2)
}

// TestCompactMoveCrash puts the crash point on every persistence op of the
// move-and-merge job, under both domains and all three fault modes. A flip
// lands in the last op that took effect, so its sweep starts one op in: at
// the job's first op that is the last flush's manifest record, whose loss is
// the flush's, not the job's.
func TestCompactMoveCrash(t *testing.T) {
	for _, domain := range bothDomains {
		first, last := mvMeasure(t, domain)
		if again, _ := mvMeasure(t, domain); again != first || last-first < 8 {
			t.Fatalf("%s: job spans events %d..%d (then %d..): not deterministic, or too short to be the job", domain, first, last, again)
		}
		for k := first; k <= last; k++ {
			for _, fault := range []Fault{FaultNone, FaultTorn, FaultFlip} {
				if fault == FaultFlip && k == first {
					continue
				}
				if msg := mvRunOne(domain, k, fault); msg != "" {
					t.Errorf("move/merge crash %s/%d/%s: %s", domain, k, fault, msg)
				}
			}
		}
		t.Logf("%s: %d crash points x 3 faults over the job's events %d..%d", domain, last-first+1, first, last)
	}
}
