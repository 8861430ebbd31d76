package lsm

import (
	"bytes"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"cachekv/internal/blockcache"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
	"cachekv/internal/sstable"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// Options configure the tree geometry. Zero values select the defaults noted
// per field (scaled from LevelDB's to suit experiment-sized datasets).
type Options struct {
	L0CompactionTrigger int    // L0 file count triggering compaction (4)
	BaseLevelBytes      int64  // L1 size limit; each level is Multiplier x larger (8 MiB)
	LevelMultiplier     int64  // per-level growth factor (10)
	MaxLevels           int    // total levels including L0 (7)
	TableFileSize       uint64 // target SSTable size (2 MiB)
	SingleLevel         bool   // SLM-DB mode: everything lives in one sorted-ish level, no compaction

	// BlockCacheBytes sizes the shared DRAM block cache fronting SSTable
	// data-block reads (8 MiB, LevelDB's default); negative disables it.
	BlockCacheBytes int64
}

// blockCacheShards is the block cache's lock-shard count.
const blockCacheShards = 16

// WithDefaults returns o with every zero field resolved to the default the
// tree runs with: callers that size budgets from the tree's shape (flow
// control's bounds, a harness's memory cap) read it here, not from a copy.
func (o Options) WithDefaults() Options {
	if o.L0CompactionTrigger == 0 {
		o.L0CompactionTrigger = 4
	}
	if o.BaseLevelBytes == 0 {
		o.BaseLevelBytes = 8 << 20
	}
	if o.LevelMultiplier == 0 {
		o.LevelMultiplier = 10
	}
	if o.MaxLevels == 0 {
		o.MaxLevels = 7
	}
	if o.TableFileSize == 0 {
		o.TableFileSize = 2 << 20
	}
	if o.BlockCacheBytes == 0 {
		o.BlockCacheBytes = 8 << 20
	}
	return o
}

// Stats counts tree activity.
type Stats struct {
	TablesFlushed   int64
	Compactions     int64
	CompactedBytes  int64 // input bytes compactions rewrote (moved tables excluded)
	TablesCompacted int64
	TablesMoved     int64 // tables a compaction re-levelled by manifest edit alone
	Ingests         int64
	TablesIngested  int64
}

// Tree is the on-PMem LSM storage component.
type Tree struct {
	m    *hw.Machine
	fs   *pmemfs.FS
	opts Options

	mu             sync.RWMutex
	levels         [][]*FileMeta
	manifest       *wal.Writer
	manifestRegion hw.Region
	nextFile       uint64
	lastSeq        uint64
	stats          Stats

	// compacting holds file numbers reserved by in-flight compaction jobs
	// (inputs and next-level overlap alike). Pickers skip any candidate whose
	// file set intersects it, so the jobs of one round never double-claim an
	// extent and same-level jobs stay on disjoint key ranges.
	compacting map[uint64]bool
	// compactPtr remembers, per level, the largest user key of the last
	// picked inputs so successive picks rotate through the key space instead
	// of hammering the leftmost file.
	compactPtr [][]byte
	// rangeDelCount tracks live range tombstones across every FileMeta so
	// the common tombstone-free case skips coverage aggregation entirely.
	rangeDelCount int
	// compactIn/compactOut accumulate, per level, bytes consumed from and
	// written to that level by compactions — the write-amplification ledger.
	// compactMoved is the bytes that entered a level without being rewritten.
	compactIn    []int64
	compactOut   []int64
	compactMoved []int64

	// jobs numbers the jobs CompactRound runs, for their trace events;
	// roundJobs is how many the round in progress runs.
	jobs      atomic.Int64
	roundJobs atomic.Int32

	readerMu sync.Mutex
	readers  map[uint64]*sstable.Reader

	// blockCache is shared by every reader; nil when disabled.
	blockCache *blockcache.Cache

	// graveyard delays physical deletion of compacted-away files by two
	// compaction cycles so in-flight readers and iterators (which run
	// lock-free against a version snapshot) never lose their extents.
	graveMu   sync.Mutex
	graveyard [][]uint64
}

// Open mounts a tree whose manifest lives in manifestRegion, replaying any
// previous state (crash recovery) and starting a fresh, compacted manifest.
func Open(m *hw.Machine, fs *pmemfs.FS, manifestRegion hw.Region, opts Options, th *hw.Thread) (*Tree, error) {
	opts = opts.WithDefaults()
	t := &Tree{
		m:              m,
		fs:             fs,
		opts:           opts,
		levels:         make([][]*FileMeta, opts.MaxLevels),
		manifestRegion: manifestRegion,
		nextFile:       1,
		readers:        make(map[uint64]*sstable.Reader),
		blockCache:     blockcache.New(opts.BlockCacheBytes, blockCacheShards),
		compacting:     make(map[uint64]bool),
		compactPtr:     make([][]byte, opts.MaxLevels),
		compactIn:      make([]int64, opts.MaxLevels),
		compactOut:     make([]int64, opts.MaxLevels),
		compactMoved:   make([]int64, opts.MaxLevels),
	}
	// Replay the previous manifest, if any.
	r := wal.NewReader(m, manifestRegion)
	err := r.ReplayAll(th, func(rec []byte) error {
		e, err := decodeEdit(rec, opts.MaxLevels)
		if err != nil {
			return err
		}
		t.apply(e)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Drop files whose SSTable vanished (crash between manifest append and
	// file seal cannot happen in our ordering, but be defensive).
	for lvl := range t.levels {
		keep := t.levels[lvl][:0]
		for _, f := range t.levels[lvl] {
			if _, err := t.fs.Open(tableName(f.Num)); err == nil {
				keep = append(keep, f)
			}
		}
		t.levels[lvl] = keep
	}
	// Delete orphaned tables: outputs of a compaction or ingest whose
	// installing manifest record never landed (the edit is one CRC'd append,
	// so a crash leaves exactly the old file set), plus graveyarded inputs
	// whose grace period was cut short by the crash. Recovery holds no
	// iterators, so immediate deletion is safe — and necessary, because the
	// replayed nextFile may be below the orphans' numbers and new tables
	// would collide with the stale extents.
	live := make(map[uint64]bool)
	for _, files := range t.levels {
		for _, f := range files {
			live[f.Num] = true
		}
	}
	for _, name := range fs.List() {
		var num uint64
		if n, err := fmt.Sscanf(name, "%d.sst", &num); err != nil || n != 1 {
			continue
		}
		if !live[num] {
			if err := fs.Delete(th, name); err != nil {
				return nil, err
			}
		}
	}
	// Start a fresh manifest holding one snapshot edit.
	t.manifest = wal.NewWriter(m, manifestRegion, th)
	snap := &versionEdit{nextFile: t.nextFile, lastSeq: t.lastSeq}
	for lvl, files := range t.levels {
		for _, f := range files {
			snap.added = append(snap.added, addedFile{level: lvl, meta: *f})
		}
	}
	if _, err := t.manifest.Append(th, snap.encode()); err != nil {
		return nil, err
	}
	return t, nil
}

func tableName(num uint64) string { return fmt.Sprintf("%06d.sst", num) }

// apply folds an edit into the in-memory version (t.mu must be held or the
// tree not yet shared). A published version is immutable — Get walks it
// outside the lock — so every level the edit touches is rebuilt in a fresh
// slice under a fresh level table, and t.levels is swapped once at the end.
func (t *Tree) apply(e *versionEdit) {
	levels := append([][]*FileMeta(nil), t.levels...)
	fresh := make([]bool, len(levels)) // levels[l] is already this edit's own copy
	own := func(level int) {
		if !fresh[level] {
			levels[level] = append([]*FileMeta(nil), levels[level]...)
			fresh[level] = true
		}
	}
	for _, d := range e.deleted {
		own(d.level)
		files := levels[d.level]
		for i, f := range files {
			if f.Num == d.num {
				t.rangeDelCount -= len(f.RangeDels)
				levels[d.level] = append(files[:i], files[i+1:]...)
				break
			}
		}
	}
	for _, a := range e.added {
		own(a.level)
		meta := a.meta
		t.rangeDelCount += len(meta.RangeDels)
		levels[a.level] = append(levels[a.level], &meta)
	}
	for level, touched := range fresh {
		if touched {
			t.sortLevel(level, levels[level])
		}
	}
	t.levels = levels
	if e.nextFile > t.nextFile {
		t.nextFile = e.nextFile
	}
	if e.lastSeq > t.lastSeq {
		t.lastSeq = e.lastSeq
	}
}

// sortLevel orders an unpublished level slice: L0 newest first (descending
// file number, the order Get probes it in), SingleLevel's level by ascending
// file number, and every other level by smallest key.
func (t *Tree) sortLevel(level int, files []*FileMeta) {
	switch {
	case level == 0:
		sort.Slice(files, func(i, j int) bool { return files[i].Num > files[j].Num })
	case t.opts.SingleLevel:
		sort.Slice(files, func(i, j int) bool { return files[i].Num < files[j].Num })
	default:
		sort.Slice(files, func(i, j int) bool {
			return util.CompareInternal(files[i].Smallest, files[j].Smallest) < 0
		})
	}
}

// logAndApply persists an edit then applies it (t.mu held).
func (t *Tree) logAndApply(th *hw.Thread, e *versionEdit) error {
	e.nextFile = t.nextFile
	if _, err := t.manifest.Append(th, e.encode()); err != nil {
		return err
	}
	t.apply(e)
	return nil
}

// LastSeq returns the highest sequence number recorded by flushes.
func (t *Tree) LastSeq() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.lastSeq
}

// NumFiles returns the file count at a level.
func (t *Tree) NumFiles(level int) int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.levels[level])
}

// LevelBytes returns a level's total byte size.
// NumLevels reports the configured level count (including L0).
func (t *Tree) NumLevels() int { return t.opts.MaxLevels }

func (t *Tree) LevelBytes(level int) int64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var n int64
	for _, f := range t.levels[level] {
		n += int64(f.Size)
	}
	return n
}

// L0Pressure reports the L0 file count and byte total under one lock
// acquisition — the storage-component pressure signal the engine's
// flow-control state machine polls on every lifecycle event.
func (t *Tree) L0Pressure() (files int, bytes int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	for _, f := range t.levels[0] {
		bytes += int64(f.Size)
	}
	return len(t.levels[0]), bytes
}

// GetStats returns a copy of the activity counters.
func (t *Tree) GetStats() Stats {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.stats
}

// reader returns (opening if needed) the cached sstable reader for a file.
func (t *Tree) reader(th *hw.Thread, num uint64) (*sstable.Reader, error) {
	t.readerMu.Lock()
	defer t.readerMu.Unlock()
	if r, ok := t.readers[num]; ok {
		return r, nil
	}
	f, err := t.fs.Open(tableName(num))
	if err != nil {
		return nil, err
	}
	r, err := sstable.NewReader(f, th)
	if err != nil {
		return nil, err
	}
	r.SetCache(t.blockCache, num)
	t.readers[num] = r
	return r, nil
}

// addReader registers the reader of a table this tree just wrote.
func (t *Tree) addReader(num uint64, r *sstable.Reader) {
	r.SetCache(t.blockCache, num)
	t.readerMu.Lock()
	t.readers[num] = r
	t.readerMu.Unlock()
}

func (t *Tree) dropReader(num uint64) {
	t.readerMu.Lock()
	delete(t.readers, num)
	t.readerMu.Unlock()
	t.blockCache.EvictFile(num)
}

// CacheStats returns the shared block cache's counters (zeros when the cache
// is disabled).
func (t *Tree) CacheStats() blockcache.Stats { return t.blockCache.Stats() }

// writeTables drains it into one or more SSTables cut at target data bytes,
// returning their metadata. Entries must arrive in internal-key order. On any
// error it aborts the open table and deletes the ones it finished, so a failed
// flush, ingest or compaction leaves the filesystem as it found it.
//
// cover lists the range tombstones participating in this rewrite (a
// compaction passes the tombstones carried by its input files): point
// entries they cover — strictly older sequence, user key in [Start, End) —
// are dropped, since the tombstone itself is retained. Range-tombstone
// entries are never treated as key versions: they don't shadow point writes
// at the same user key, and they are recorded in the emitting file's FileMeta
// so readers can aggregate coverage from metadata alone.
//
// dropTombstones drops point tombstones (KindDelete) — compactions set it
// when no level below the output overlaps the key range. Range tombstones are
// NEVER dropped: the engine's sub-MemTable slots flush out of sequence order,
// so an entry older than an acknowledged DeleteRange can still be
// memory-resident while the tombstone compacts to the bottom; dropping it
// there would resurrect that entry when its slot finally spills. A range
// tombstone's metadata footprint is tiny, so it simply outlives every version
// it can still hide.
func (t *Tree) writeTables(th *hw.Thread, it Iterator, dropShadowed, dropTombstones bool, cover []RangeDel, target uint64) (out []FileMeta, err error) {
	var w *sstable.Writer
	var spare *sstable.Writer // the last table's writer: the next one Resets it
	var num uint64
	defer func() {
		if err == nil {
			return
		}
		if w != nil {
			w.Abort()
		}
		t.deleteTables(th, out)
		out = nil
	}()
	var lastUser, lastAdded []byte
	var curRDs []RangeDel
	var lastRD util.InternalKey
	haveLast := false

	finish := func() error {
		if w == nil {
			return nil
		}
		count, smallest, largest, err := w.Finish()
		if err != nil {
			return err
		}
		if count == 0 {
			// Empty output: abort the file. (Cannot happen today because we
			// only open a writer when an entry is about to be added.)
			return nil
		}
		f, err := t.fs.Open(tableName(num))
		if err != nil {
			return err
		}
		// This process wrote the table, so its reader is built from the
		// writer's own filter and index instead of reading them back on the
		// table's first lookup; a reopened tree has only sstable.NewReader.
		t.addReader(num, w.Reader(f))
		out = append(out, FileMeta{
			Num: num, Size: f.Size(), Count: count,
			Smallest:  append(util.InternalKey(nil), smallest...),
			Largest:   append(util.InternalKey(nil), largest...),
			RangeDels: curRDs,
		})
		spare, w = w, nil
		curRDs = nil
		return nil
	}

	for ; it.Valid(); it.Next() {
		ikey := it.Key()
		isRD := ikey.Kind() == util.KindRangeDel
		if isRD {
			// Identical tombstone from two sources (defensive): emit once.
			if lastRD != nil && util.CompareInternal(ikey, lastRD) == 0 {
				continue
			}
			lastRD = append(lastRD[:0], ikey...)
		} else {
			if dropShadowed && haveLast && bytes.Equal(ikey.UserKey(), lastUser) {
				continue // older version of a key we already emitted
			}
			lastUser = append(lastUser[:0], ikey.UserKey()...)
			haveLast = true
			if covered(cover, ikey) {
				continue
			}
			if dropTombstones && ikey.Kind() == util.KindDelete {
				continue
			}
		}
		// Cut between user keys: two tables of a sorted level must never share
		// one (a key's point version and an older range tombstone starting at
		// it stay together), and a flushed run whose tables share none is
		// disjoint, so compaction can move them. A flush keeps every version,
		// so a hot key could outgrow the file: past a quarter table of
		// overshoot it is cut anyway, and those two tables merge later.
		if w != nil && w.EstimatedSize() >= target && (!bytes.Equal(ikey.UserKey(), lastAdded) ||
			!dropShadowed && w.EstimatedSize() >= target+t.opts.TableFileSize/4) {
			if err := finish(); err != nil {
				return out, err
			}
		}
		if w == nil {
			t.mu.Lock()
			num = t.nextFile
			t.nextFile++
			t.mu.Unlock()
			capacity := t.opts.TableFileSize + t.opts.TableFileSize/2 + (256 << 10)
			fw, err := t.fs.Create(th, tableName(num), capacity)
			if err != nil {
				return out, err
			}
			if spare != nil {
				w, spare = spare, nil
				w.Reset(fw)
			} else {
				w = sstable.NewWriter(fw, th)
			}
		}
		if err := w.Add(ikey, it.Value()); err != nil {
			return out, err
		}
		if isRD {
			curRDs = append(curRDs, RangeDel{
				Start: append([]byte(nil), ikey.UserKey()...),
				End:   append([]byte(nil), it.Value()...),
				Seq:   ikey.Seq(),
			})
		}
		lastAdded = append(lastAdded[:0], ikey.UserKey()...)
	}
	// A source that failed looks exhausted: without this check a compaction
	// over a corrupt block would install outputs missing the rest of the table.
	if err := it.Err(); err != nil {
		return out, err
	}
	if err := finish(); err != nil {
		return out, err
	}
	return out, nil
}

// deleteTables removes tables no version ever referenced, and their readers:
// outputs of a write that failed before its manifest record. Best effort — the
// next Open's orphan sweep takes whatever a failing filesystem keeps.
func (t *Tree) deleteTables(th *hw.Thread, metas []FileMeta) {
	for _, m := range metas {
		t.dropReader(m.Num)
		_ = t.fs.Delete(th, tableName(m.Num))
	}
}

// covered reports whether some tombstone in cover hides this point entry.
func covered(cover []RangeDel, ikey util.InternalKey) bool {
	if len(cover) == 0 {
		return false
	}
	ukey, seq := ikey.UserKey(), ikey.Seq()
	for _, rd := range cover {
		if rd.Covers(ukey, seq) {
			return true
		}
	}
	return false
}

// Flush writes the contents of it (a frozen memtable view in internal-key
// order) into new tables at L0 — or L1 in SingleLevel mode — records maxSeq,
// and runs any compactions that fall due. It is called from background flush
// threads; concurrent flushes serialize on the tree lock only around version
// installation.
func (t *Tree) Flush(th *hw.Thread, it Iterator, maxSeq uint64) error {
	if err := t.FlushNoCompact(th, it, maxSeq); err != nil {
		return err
	}
	return t.MaybeCompact(th)
}

// FlushNoCompact installs tables like Flush but leaves any due compaction to
// a later MaybeCompact call — engines whose flush latency must not absorb
// compaction debt (CacheKV's spill path) use it and compact afterwards.
func (t *Tree) FlushNoCompact(th *hw.Thread, it Iterator, maxSeq uint64) error {
	it.SeekToFirst()
	metas, err := t.writeTables(th, it, false, false, nil, t.opts.TableFileSize)
	if err != nil {
		return err
	}
	level := 0
	if t.opts.SingleLevel {
		level = 1
	}
	t.mu.Lock()
	e := &versionEdit{lastSeq: maxSeq}
	for _, mmeta := range metas {
		e.added = append(e.added, addedFile{level: level, meta: mmeta})
	}
	if maxSeq > t.lastSeq {
		e.lastSeq = maxSeq
	}
	err = t.logAndApply(th, e)
	t.stats.TablesFlushed += int64(len(metas))
	t.mu.Unlock()
	if err != nil {
		t.deleteTables(th, metas)
	}
	return err
}

// levelLimit returns the size limit for level (1-based levels).
func (t *Tree) levelLimit(level int) int64 {
	limit := t.opts.BaseLevelBytes
	for i := 1; i < level; i++ {
		limit *= t.opts.LevelMultiplier
	}
	return limit
}

// compaction is one picked job: inputs at level merge with the overlapping
// files at level+1. The picker reserved every file in both slices; compact
// releases them when the version edit installs.
type compaction struct {
	level   int // input level; outputs go to level+1
	inputs  []*FileMeta
	overlap []*FileMeta
	score   float64
}

// dueLevel is a level over its limit and its debt score: L0 by file count
// over the trigger, L1+ by bytes over the level limit.
type dueLevel struct {
	level int
	score float64
}

// dueLocked lists the levels over their limits (t.mu held). Reservations do
// not count: a due level whose files are all claimed is still pending work.
func (t *Tree) dueLocked() []dueLevel {
	if t.opts.SingleLevel {
		return nil
	}
	var due []dueLevel
	if n := len(t.levels[0]); n >= t.opts.L0CompactionTrigger {
		due = append(due, dueLevel{0, float64(n) / float64(t.opts.L0CompactionTrigger)})
	}
	for lvl := 1; lvl < t.opts.MaxLevels-1; lvl++ {
		if len(t.levels[lvl]) == 0 {
			continue
		}
		if score := float64(t.levelBytesLocked(lvl)) / float64(t.levelLimit(lvl)); score > 1.0 {
			due = append(due, dueLevel{lvl, score})
		}
	}
	return due
}

// DueLevels counts the levels over their limits: the tree is settled when it
// is 0 and no job runs.
func (t *Tree) DueLevels() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.dueLocked())
}

// pickCompaction chooses the next compaction and reserves its files; nil
// means nothing is due or every due job conflicts with a running one. Levels
// are ranked by debt score, so the rounds always digest the deepest debt
// first instead of walking levels in FIFO order.
func (t *Tree) pickCompaction() *compaction {
	t.mu.Lock()
	defer t.mu.Unlock()
	due := t.dueLocked()
	sort.Slice(due, func(i, j int) bool { return due[i].score > due[j].score })
	for _, d := range due {
		if c := t.buildCompactionLocked(d.level); c != nil {
			c.score = d.score
			return c
		}
	}
	return nil
}

// buildCompactionLocked assembles and reserves a job at level, or returns nil
// when every candidate conflicts with reserved files. For L1+ it rotates
// through the key space via compactPtr and expands the seed file to the full
// same-level overlap set (defensive fixpoint — levels are disjoint by
// invariant) before selecting every overlapping next-level file.
func (t *Tree) buildCompactionLocked(level int) *compaction {
	if level == 0 {
		inputs := append([]*FileMeta(nil), t.levels[0]...)
		if t.anyReservedLocked(inputs) {
			return nil
		}
		overlap := t.overlapClosure(1, inputs)
		if t.anyReservedLocked(overlap) {
			return nil
		}
		return t.reserveLocked(&compaction{level: 0, inputs: inputs, overlap: overlap})
	}
	files := t.levels[level]
	start := 0
	if ptr := t.compactPtr[level]; ptr != nil {
		start = sort.Search(len(files), func(i int) bool {
			return bytes.Compare(files[i].Smallest.UserKey(), ptr) > 0
		})
	}
	for off := 0; off < len(files); off++ {
		seed := files[(start+off)%len(files)]
		if t.compacting[seed.Num] {
			continue
		}
		inputs := []*FileMeta{seed}
		for {
			grown := t.overlapping(level, inputs)
			if len(grown) <= len(inputs) {
				break
			}
			inputs = grown
		}
		if t.anyReservedLocked(inputs) {
			continue
		}
		overlap := t.overlapClosure(level+1, inputs)
		if t.anyReservedLocked(overlap) {
			continue
		}
		hi := inputs[0].Largest.UserKey()
		for _, f := range inputs[1:] {
			if bytes.Compare(f.Largest.UserKey(), hi) > 0 {
				hi = f.Largest.UserKey()
			}
		}
		t.compactPtr[level] = append([]byte(nil), hi...)
		return t.reserveLocked(&compaction{level: level, inputs: inputs, overlap: overlap})
	}
	return nil
}

func (t *Tree) anyReservedLocked(files []*FileMeta) bool {
	for _, f := range files {
		if t.compacting[f.Num] {
			return true
		}
	}
	return false
}

func (t *Tree) reserveLocked(c *compaction) *compaction {
	for _, f := range c.inputs {
		t.compacting[f.Num] = true
	}
	for _, f := range c.overlap {
		t.compacting[f.Num] = true
	}
	return c
}

func (t *Tree) releaseLocked(c *compaction) {
	for _, f := range c.inputs {
		delete(t.compacting, f.Num)
	}
	for _, f := range c.overlap {
		delete(t.compacting, f.Num)
	}
}

func (t *Tree) levelBytesLocked(level int) int64 {
	var n int64
	for _, f := range t.levels[level] {
		n += int64(f.Size)
	}
	return n
}

// overlapping returns the files at level whose user-key ranges intersect any
// input's range, with range-tombstone spans widening the inputs' range (a
// tombstone's reach can extend past its file's largest entry key).
func (t *Tree) overlapping(level int, inputs []*FileMeta) []*FileMeta {
	lo, hi := keyRange(inputs)
	return t.overlappingRange(level, lo, hi)
}

// overlapClosure returns the files at level a job over inputs must take: those
// meeting the inputs' range, grown until no file left at the level meets the
// range of inputs and overlap together. A range tombstone can stretch a taken
// file's range over a neighbour its keys do not reach, and the merge's output
// spans the whole range, so a neighbour left out would end up inside it.
func (t *Tree) overlapClosure(level int, inputs []*FileMeta) []*FileMeta {
	overlap := t.overlapping(level, inputs)
	for {
		grown := t.overlapping(level, append(slices.Clip(inputs), overlap...))
		if len(grown) == len(overlap) {
			return overlap
		}
		overlap = grown
	}
}

// keyRange returns the user-key span covered by files, including their range
// tombstones' [Start, End) spans (End is treated as inclusive — conservative).
func keyRange(files []*FileMeta) (lo, hi []byte) {
	for _, f := range files {
		if lo == nil || bytes.Compare(f.Smallest.UserKey(), lo) < 0 {
			lo = f.Smallest.UserKey()
		}
		if hi == nil || bytes.Compare(f.Largest.UserKey(), hi) > 0 {
			hi = f.Largest.UserKey()
		}
		for _, rd := range f.RangeDels {
			if bytes.Compare(rd.Start, lo) < 0 {
				lo = rd.Start
			}
			if bytes.Compare(rd.End, hi) > 0 {
				hi = rd.End
			}
		}
	}
	return lo, hi
}

func (t *Tree) overlappingRange(level int, lo, hi []byte) []*FileMeta {
	var out []*FileMeta
	for _, f := range t.levels[level] {
		flo, fhi := keyRange([]*FileMeta{f})
		if bytes.Compare(fhi, lo) < 0 || bytes.Compare(flo, hi) > 0 {
			continue
		}
		out = append(out, f)
	}
	return out
}

// MaybeCompact runs compactions until every level is within limits. It is
// charged to the calling (background) thread. It cooperates with compaction
// rounds through the same reservation set, so the two never
// double-claim.
func (t *Tree) MaybeCompact(th *hw.Thread) error {
	for {
		c := t.pickCompaction()
		if c == nil {
			return nil
		}
		if _, err := t.compact(th, c); err != nil {
			return err
		}
	}
}

// CompactRound runs one round of compactions on the threads ths, one job per
// thread at most, and books each on server. The round starts at the later of
// at and the end of the previous round on ths (the latest of their clocks).
// It picks up to len(ths) jobs, which the reservation set keeps disjoint,
// then runs each in PhaseCompact on its own thread from the round's start,
// between its compact_start and compact_end events; the host runs them one
// after another, in pick order. done is the round's end — its latest job's
// completion, to which that job's thread advances — or its start when
// nothing was pickable (ran false). A failed job ends the round: the jobs
// picked after it are released unrun. A tree runs one round at a time (the
// engine's compactMu).
func (t *Tree) CompactRound(ths []*hw.Thread, at int64, server *sim.ServerPool, trace *obs.Trace) (done int64, ran bool, err error) {
	start := at
	for _, th := range ths {
		start = max(start, th.Clock.Now())
	}
	var cs []*compaction
	for range ths {
		c := t.pickCompaction()
		if c == nil {
			break
		}
		cs = append(cs, c)
	}
	t.roundJobs.Store(int32(len(cs)))
	defer t.roundJobs.Store(0)
	done = start
	for i, c := range cs {
		if err != nil {
			t.mu.Lock()
			t.releaseLocked(c)
			t.mu.Unlock()
			continue
		}
		th := ths[i]
		th.Clock.AdvanceTo(start)
		id := t.jobs.Add(1) - 1
		trace.Emit(start, "compact_start", "job", id, "level", c.level,
			"inputs", len(c.inputs), "overlap", len(c.overlap), "score", c.score)
		var res compactResult
		th.InPhase(hw.PhaseCompact, func() {
			res, err = t.compact(th, c)
		})
		dur := th.Clock.Now() - start
		end := server.Submit(start, dur)
		th.Clock.AdvanceTo(end)
		done = max(done, end)
		attrs := []any{"job", id, "level", res.Level, "out_level", res.OutLevel}
		if err != nil {
			attrs = append(attrs, "err", err.Error())
		} else {
			attrs = append(attrs, "bytes_in", res.BytesIn, "bytes_out", res.BytesOut,
				"tables_in", res.Inputs, "tables_out", res.Outputs,
				"moved", res.Moved, "components", res.Components)
		}
		trace.Emit(end, "compact_end", append(attrs, "ns", dur)...)
	}
	return done, len(cs) > 0, err
}

// RoundJobs returns how many jobs the compaction round in progress runs: 0
// between rounds.
func (t *Tree) RoundJobs() int { return int(t.roundJobs.Load()) }

// compactResult summarizes one finished job for its trace events and the
// write-amplification ledger. Bytes and table counts are what the job
// rewrote; tables it moved are counted apart.
type compactResult struct {
	Level      int
	OutLevel   int
	BytesIn    int64
	BytesOut   int64
	Inputs     int
	Outputs    int
	Moved      int
	MovedBytes int64
	Components int
}

// components partitions files into the connected components of key-range
// overlap, in key order. Ranges are keyRange's: user keys, bounds inclusive,
// range-tombstone spans included — so nothing in one component can shadow,
// cover or share a user key with anything in another.
func components(files []*FileMeta) [][]*FileMeta {
	files = append([]*FileMeta(nil), files...)
	sort.Slice(files, func(i, j int) bool {
		li, _ := keyRange(files[i : i+1])
		lj, _ := keyRange(files[j : j+1])
		return bytes.Compare(li, lj) < 0
	})
	var comps [][]*FileMeta
	var hi []byte // largest key of the component being grown
	for i, f := range files {
		flo, fhi := keyRange(files[i : i+1])
		if i == 0 || bytes.Compare(flo, hi) > 0 {
			comps = append(comps, nil)
			hi = fhi
		} else if bytes.Compare(fhi, hi) > 0 {
			hi = fhi
		}
		comps[len(comps)-1] = append(comps[len(comps)-1], f)
	}
	return comps
}

// compact runs one picked job, rewriting only what it has to merge. The job's
// files split into overlap components: a lone table already at the output
// level stays where it is, a lone table at the input level moves down by the
// manifest record alone (same file number, so its reader and cached blocks
// stay valid; no byte read or written), and each component of two or more
// tables is merged on its own, so no output spans a table that stayed. One
// CRC'd manifest record installs the whole job.
func (t *Tree) compact(th *hw.Thread, c *compaction) (compactResult, error) {
	outLevel := c.level + 1
	res := compactResult{Level: c.level, OutLevel: outLevel}
	all := append(append([]*FileMeta(nil), c.inputs...), c.overlap...)
	levelOf := make(map[uint64]int, len(all))
	for _, f := range c.overlap {
		levelOf[f.Num] = outLevel
	}
	for _, f := range c.inputs {
		levelOf[f.Num] = c.level
	}

	// Point tombstones can be dropped when no level below the output overlaps
	// the compaction's key range (range-tombstone spans included); range
	// tombstones are always retained — see writeTables.
	lo, hi := keyRange(all)
	t.mu.Lock()
	dropTombs := true
	for lvl := outLevel + 1; lvl < t.opts.MaxLevels; lvl++ {
		if len(t.overlappingRange(lvl, lo, hi)) > 0 {
			dropTombs = false
			break
		}
	}
	t.mu.Unlock()

	var merged, moved []*FileMeta
	var outs []FileMeta
	// The picker reserved every file in all; release on every exit. Releases
	// happen under t.mu together with (or after) the version-edit apply, so a
	// concurrent picker never sees a file both unreserved and already gone.
	fail := func(err error) (compactResult, error) {
		t.deleteTables(th, outs)
		t.mu.Lock()
		t.releaseLocked(c)
		t.mu.Unlock()
		return res, err
	}
	for _, comp := range components(all) {
		res.Components++
		if len(comp) == 1 {
			if levelOf[comp[0].Num] == c.level {
				moved = append(moved, comp[0])
			}
			continue
		}
		metas, err := t.mergeComponent(th, comp, dropTombs)
		if err != nil {
			return fail(err)
		}
		merged = append(merged, comp...)
		outs = append(outs, metas...)
	}

	t.mu.Lock()
	e := &versionEdit{}
	for _, f := range merged {
		e.deleted = append(e.deleted, deletedFile{level: levelOf[f.Num], num: f.Num})
		res.BytesIn += int64(f.Size)
	}
	for _, f := range moved {
		e.deleted = append(e.deleted, deletedFile{level: c.level, num: f.Num})
		e.added = append(e.added, addedFile{level: outLevel, meta: *f})
		res.MovedBytes += int64(f.Size)
	}
	for _, mmeta := range outs {
		e.added = append(e.added, addedFile{level: outLevel, meta: mmeta})
		res.BytesOut += int64(mmeta.Size)
	}
	res.Inputs, res.Outputs, res.Moved = len(merged), len(outs), len(moved)
	if err := t.logAndApply(th, e); err != nil {
		t.mu.Unlock()
		return fail(err)
	}
	for _, f := range merged {
		t.compactIn[levelOf[f.Num]] += int64(f.Size)
	}
	t.compactOut[outLevel] += res.BytesOut
	t.compactMoved[outLevel] += res.MovedBytes
	t.stats.Compactions++
	t.stats.CompactedBytes += res.BytesIn
	t.stats.TablesCompacted += int64(len(merged))
	t.stats.TablesMoved += int64(len(moved))
	t.releaseLocked(c)
	t.mu.Unlock()
	if len(merged) == 0 {
		// Nothing retired: a move-only job must not age the graveyard, or a
		// burst of them (microseconds each) would cut short the grace period
		// lock-free readers of earlier versions rely on.
		return res, nil
	}
	// Retire the rewritten inputs with a grace period instead of deleting
	// them now.
	t.graveMu.Lock()
	var dead []uint64
	for _, f := range merged {
		dead = append(dead, f.Num)
	}
	t.graveyard = append(t.graveyard, dead)
	var toDelete []uint64
	if len(t.graveyard) > 2 {
		toDelete = t.graveyard[0]
		t.graveyard = t.graveyard[1:]
	}
	t.graveMu.Unlock()
	for _, num := range toDelete {
		t.dropReader(num)
		if err := t.fs.Delete(th, tableName(num)); err != nil {
			return res, err
		}
	}
	return res, nil
}

// mergeComponent rewrites one overlap component as tables of even size: its
// bytes over the nearest whole number of TableFileSize tables, so a
// component's tail does not leave a sliver at the output level.
func (t *Tree) mergeComponent(th *hw.Thread, comp []*FileMeta, dropTombs bool) ([]FileMeta, error) {
	// Newest-first ordering for the merge tie-break: higher file numbers are
	// newer at L0; between levels, the upper level is newer.
	sort.SliceStable(comp, func(i, j int) bool { return comp[i].Num > comp[j].Num })
	its := make([]Iterator, 0, len(comp))
	var merged MergingIterator
	defer merged.Close()
	var tombs []RangeDel
	var size uint64
	for _, f := range comp {
		tombs = append(tombs, f.RangeDels...)
		size += f.Size
		r, err := t.reader(th, f.Num)
		var ti Iterator
		if err == nil {
			// Every entry of an input is read once and the file then deleted:
			// whole blocks, the one reader that does not walk them in place.
			ti, err = r.NewCompactionIter(th)
		}
		if err != nil {
			merged.Reset(its) // for the deferred Close
			return nil, err
		}
		its = append(its, ti)
	}
	merged.Reset(its)
	merged.SeekToFirst()
	tables := (size + t.opts.TableFileSize/2) / t.opts.TableFileSize
	if tables == 0 {
		tables = 1
	}
	return t.writeTables(th, &merged, true, dropTombs, tombs, size/tables)
}

// Get looks up ukey at snapshot seq. It returns the freshest visible value
// and its sequence number, with deleted=true when a tombstone definitively
// ends the search. Engines with multiple memtables compare foundSeq against
// memory-resident candidates to pick the globally freshest version.
func (t *Tree) Get(th *hw.Thread, ukey []byte, seq uint64) (value []byte, foundSeq uint64, found, deleted bool, err error) {
	// A concurrent compaction can retire a file between our version snapshot
	// and the table read; retry against a fresh snapshot when that happens.
	for attempt := 0; ; attempt++ {
		value, foundSeq, found, deleted, err = t.getOnce(th, ukey, seq)
		if err == pmemfs.ErrNotFound && attempt < 5 {
			continue
		}
		break
	}
	if err != nil {
		return
	}
	// A range tombstone newer than the freshest point version hides it.
	// Coverage is strict on sequence, so an equal-seq point write survives.
	if cover := t.RangeCoverSeq(ukey, seq); cover > 0 && (!(found || deleted) || cover > foundSeq) {
		return nil, cover, false, true, nil
	}
	return
}

// RangeCoverSeq returns the highest sequence of any range tombstone visible
// at snapshot seq that spans ukey, or 0 when none does. Callers holding
// candidates from other layers (memtables) compare their sequence against it.
func (t *Tree) RangeCoverSeq(ukey []byte, seq uint64) uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rangeDelCount == 0 {
		return 0
	}
	var best uint64
	for _, files := range t.levels {
		for _, f := range files {
			for _, rd := range f.RangeDels {
				if rd.Seq > best && rd.Seq <= seq &&
					bytes.Compare(ukey, rd.Start) >= 0 && bytes.Compare(ukey, rd.End) < 0 {
					best = rd.Seq
				}
			}
		}
	}
	return best
}

// RangeTombstones appends to dst every range tombstone visible at snapshot
// seq — scan paths aggregate these with the memory-resident tombstone list.
func (t *Tree) RangeTombstones(dst []RangeDel, seq uint64) []RangeDel {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.rangeDelCount == 0 {
		return dst
	}
	for _, files := range t.levels {
		for _, f := range files {
			for _, rd := range f.RangeDels {
				if rd.Seq <= seq {
					dst = append(dst, rd)
				}
			}
		}
	}
	return dst
}

func (t *Tree) getOnce(th *hw.Thread, ukey []byte, seq uint64) (value []byte, foundSeq uint64, found, deleted bool, err error) {
	// The search key is only compared against; it lives in the thread's scratch.
	ikey := util.MakeInternalKey(th.Scratch.Key, ukey, seq, util.KindValue)
	th.Scratch.Key = ikey
	// The published version is immutable (see apply): take it and walk it
	// outside the lock, with no copies.
	t.mu.RLock()
	levels := t.levels
	t.mu.RUnlock()

	// L0 (and SingleLevel's L1) hold overlapping tables, each of which may
	// carry a version; keep the freshest.
	overlapping := 1
	if t.opts.SingleLevel {
		overlapping = 2
	}
	var bestVal []byte
	var bestSeq uint64
	var bestKind util.ValueKind
	best := false
	for _, files := range levels[:overlapping] {
		for _, f := range files {
			if bytes.Compare(ukey, f.Smallest.UserKey()) < 0 || bytes.Compare(ukey, f.Largest.UserKey()) > 0 {
				continue
			}
			v, fseq, kind, ok, err := t.getInFile(th, f.Num, ikey)
			if err != nil {
				return nil, 0, false, false, err
			}
			if ok && (!best || fseq > bestSeq) {
				bestVal, bestSeq, bestKind, best = v, fseq, kind, true
			}
		}
	}
	if best {
		if bestKind == util.KindDelete {
			return nil, bestSeq, false, true, nil
		}
		return bestVal, bestSeq, true, false, nil
	}
	if t.opts.SingleLevel {
		return nil, 0, false, false, nil
	}
	for _, files := range levels[1:] {
		// Sorted, non-overlapping: binary search the one candidate file.
		i := sort.Search(len(files), func(i int) bool {
			return bytes.Compare(files[i].Largest.UserKey(), ukey) >= 0
		})
		if i >= len(files) || bytes.Compare(ukey, files[i].Smallest.UserKey()) < 0 {
			continue
		}
		v, fseq, kind, ok, err := t.getInFile(th, files[i].Num, ikey)
		if err != nil {
			return nil, 0, false, false, err
		}
		if ok {
			if kind == util.KindDelete {
				return nil, fseq, false, true, nil
			}
			return v, fseq, true, false, nil
		}
	}
	return nil, 0, false, false, nil
}

func (t *Tree) getInFile(th *hw.Thread, num uint64, ikey util.InternalKey) ([]byte, uint64, util.ValueKind, bool, error) {
	r, err := t.reader(th, num)
	if err != nil {
		return nil, 0, 0, false, err
	}
	return r.Get(th, ikey)
}

// GetInTable performs a directed lookup in one specific table — SLM-DB's
// B+-tree tells the engine exactly which table holds a key.
func (t *Tree) GetInTable(th *hw.Thread, num uint64, ukey []byte, seq uint64) ([]byte, uint64, util.ValueKind, bool, error) {
	ikey := util.MakeInternalKey(nil, ukey, seq, util.KindValue)
	return t.getInFile(th, num, ikey)
}

// TableIterator returns an iterator over one specific table (SLM-DB walks
// individual tables when building its B+-tree index).
func (t *Tree) TableIterator(th *hw.Thread, num uint64) (Iterator, error) {
	r, err := t.reader(th, num)
	if err != nil {
		return nil, err
	}
	return r.NewIter(th)
}

// CompactionDebt sizes the reorganization backlog in bytes: every byte of L0
// once the trigger is reached, plus each level's overage beyond its limit.
// The engine's flow controller consumes it as the storage-pressure signal —
// it tracks what compaction still owes rather than a raw file
// count.
func (t *Tree) CompactionDebt() uint64 {
	t.mu.RLock()
	defer t.mu.RUnlock()
	if t.opts.SingleLevel {
		return 0
	}
	var debt int64
	if len(t.levels[0]) >= t.opts.L0CompactionTrigger {
		debt += t.levelBytesLocked(0)
	}
	for lvl := 1; lvl < t.opts.MaxLevels-1; lvl++ {
		if over := t.levelBytesLocked(lvl) - t.levelLimit(lvl); over > 0 {
			debt += over
		}
	}
	return uint64(debt)
}

// CompactionLevelStats returns per-level write-amplification counters: bytes
// compactions consumed from each level, bytes they wrote into it, and bytes
// that moved into it without being rewritten.
func (t *Tree) CompactionLevelStats() (in, out, moved []int64) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return append([]int64(nil), t.compactIn...), append([]int64(nil), t.compactOut...), append([]int64(nil), t.compactMoved...)
}

// Files returns a snapshot of the file metadata per level (for tests,
// tooling, and the SLM-DB engine's B+-tree construction).
func (t *Tree) Files(level int) []FileMeta {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]FileMeta, len(t.levels[level]))
	for i, f := range t.levels[level] {
		out[i] = *f
	}
	return out
}
