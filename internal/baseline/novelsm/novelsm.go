// Package novelsm reimplements NoveLSM (Kannan et al., USENIX ATC'18) as the
// paper describes and configures it: an LSM-tree KV store that keeps a small
// MemTable in DRAM (write-ahead logged) and a large mutable MemTable in PMem
// with in-place durability (no log). All writes serialize on a single shared
// MemTable mutex and update the skiplist index synchronously — the two
// software costs the paper's Observation 2 charges against it.
//
// The -w/o-flush and -cache variants (Sections II-C, IV-A) are selected via
// baseline.Variant: the former drops flush instructions on eADR, the latter
// stages the PMem MemTable through 12 MiB pinned cache segments flushed
// wholesale with clflush when full.
package novelsm

import (
	"sync"
	"sync/atomic"

	"cachekv/internal/arena"
	"cachekv/internal/baseline"
	"cachekv/internal/bgpool"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// Options configure a NoveLSM instance. Sizes default to scaled-down values
// of the paper's configuration (64 MiB DRAM MemTable, 4 GiB PMem MemTable)
// chosen so experiment-sized workloads exercise every rotation path.
type Options struct {
	Variant       baseline.Variant
	DRAMMemBytes  int64  // DRAM MemTable size (4 MiB scaled; paper 64 MiB)
	PMemMemBytes  int64  // PMem MemTable size (16 MiB scaled; paper 4 GiB)
	SegmentBytes  uint64 // pinned cache segment for the -cache variant (12 MiB)
	WALBytes      uint64
	NodeBytes     uint64 // PMem skiplist-node area (its random dirty lines)
	FSBytes       uint64
	ManifestBytes uint64
	LSM           lsm.Options

	// Trace, when non-nil, receives lifecycle events (rotation, flush
	// start/end, recovery). Every emit site is nil-safe.
	Trace *obs.Trace
}

// DefaultOptions returns the scaled evaluation configuration.
func DefaultOptions() Options {
	return Options{
		DRAMMemBytes:  4 << 20,
		PMemMemBytes:  16 << 20,
		SegmentBytes:  12 << 20,
		WALBytes:      16 << 20,
		NodeBytes:     64 << 20,
		FSBytes:       256 << 20,
		ManifestBytes: 4 << 20,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.DRAMMemBytes == 0 {
		o.DRAMMemBytes = d.DRAMMemBytes
	}
	if o.PMemMemBytes == 0 {
		o.PMemMemBytes = d.PMemMemBytes
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = d.SegmentBytes
	}
	if o.WALBytes == 0 {
		o.WALBytes = d.WALBytes
	}
	if o.NodeBytes == 0 {
		o.NodeBytes = d.NodeBytes
	}
	if o.FSBytes == 0 {
		o.FSBytes = d.FSBytes
	}
	if o.ManifestBytes == 0 {
		o.ManifestBytes = d.ManifestBytes
	}
	return o
}

// tier identifies which memory holds the active MemTable.
type tier int

const (
	tierDRAM tier = iota
	tierPMem
)

// DB is a NoveLSM instance.
type DB struct {
	m    *hw.Machine
	opts Options
	part cache.PartitionID // pinned partition for the -cache variant

	// The single shared-MemTable mutex of Ob2, serializing every write in
	// virtual time.
	lock *sim.VMutex

	mu        sync.Mutex // protects rotation state (real concurrency)
	active    *kvstore.Memtable
	activeTie tier
	imms      []*kvstore.Memtable
	seq       uint64

	walW      *wal.Writer
	walRegion hw.Region
	// Ping-pong PMem entry logs: the active PMem MemTable appends to one
	// while the sealed one drains to L0.
	logs        [2]*arena.PArena
	logBusy     [2]bool
	logCur      int
	dramPending int
	nodeRegion  hw.Region

	// flushes drains sealed MemTables to L0 one at a time. The two ping-pong
	// logs allow at most three sealed tables at once, well inside its queue.
	bg      *bgpool.Pool
	flushes *bgpool.Kind[flushJob]
	pending atomic.Int64 // sealed tables not yet flushed or dropped
	cond    *sync.Cond

	fs   *pmemfs.FS
	tree *lsm.Tree

	failed error
	closed bool
}

type flushJob struct {
	mt     *kvstore.Memtable
	logIdx int // PMem log to recycle afterwards (-1 for DRAM tables)
}

// Open creates (or recovers) a NoveLSM instance on machine m.
func Open(m *hw.Machine, opts Options, th *hw.Thread) (*DB, error) {
	opts = opts.withDefaults()
	part, err := baseline.ReservePartition(m, opts.Variant, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	db := &DB{
		m:    m,
		opts: opts,
		part: part,
		lock: sim.NewVMutex(m.Costs),
	}
	db.cond = sync.NewCond(&db.mu)

	db.walRegion = baseline.LookupOrAlloc(m, "novelsm.wal", opts.WALBytes)
	logR0 := baseline.LookupOrAlloc(m, "novelsm.plog0", uint64(opts.PMemMemBytes)*2)
	logR1 := baseline.LookupOrAlloc(m, "novelsm.plog1", uint64(opts.PMemMemBytes)*2)
	db.logs[0] = arena.NewPArena(logR0)
	db.logs[1] = arena.NewPArena(logR1)
	db.nodeRegion = baseline.LookupOrAlloc(m, "novelsm.nodes", opts.NodeBytes)
	fsRegion := baseline.LookupOrAlloc(m, "novelsm.fs", opts.FSBytes)
	manifestRegion := baseline.LookupOrAlloc(m, "novelsm.manifest", opts.ManifestBytes)

	db.fs, err = pmemfs.Mount(m, fsRegion, th)
	if err != nil {
		return nil, err
	}
	db.tree, err = lsm.Open(m, db.fs, manifestRegion, opts.LSM, th)
	if err != nil {
		return nil, err
	}
	db.seq = db.tree.LastSeq()
	db.bg = bgpool.New(func(err error) { panic(err) })
	db.flushes = bgpool.Add(db.bg, bgpool.Config{Name: "flush", Workers: 1, Rule: bgpool.FIFO, Queue: 8}, db.flushOne, db.release)

	// Crash recovery: replay the WAL (DRAM MemTable contents) and both PMem
	// entry logs into a fresh active MemTable generation.
	db.active = db.newMemtable(tierDRAM, 0)
	replayed := 0
	for _, log := range db.logs {
		kvstore.RecoverEntries(m, log.Region(), th, func(ik util.InternalKey, val []byte) {
			db.active.Insert(th, ik, val)
			if s := ik.Seq(); s > db.seq {
				db.seq = s
			}
			replayed++
		})
		log.Reset()
		db.zeroLogHead(th, log)
	}
	wr := wal.NewReader(m, db.walRegion)
	_ = wr.ReplayAll(th, func(rec []byte) error {
		e, err := kvstore.ViewEntry(rec)
		if err != nil {
			return err
		}
		db.active.Insert(th, e.InternalKey(nil), e.Value)
		if s := e.Seq(); s > db.seq {
			db.seq = s
		}
		replayed++
		return nil
	})
	db.walW = wal.NewWriterMode(m, db.walRegion, th, db.walMode())
	if replayed > 0 {
		opts.Trace.Emit(th.Clock.Now(), "recovery_end",
			"engine", db.Name(), "replayed", replayed, "last_seq", db.seq)
		// Push recovered data straight down to L0 so the logs stay reset.
		db.sealActiveLocked(th)
	}
	return db, nil
}

// walMode maps the variant to its WAL persistence discipline: vanilla uses
// store+clwb; -w/o-flush leaves log bytes to cache eviction (the Ob1
// failure mode); -cache keeps ordered flushes.
func (db *DB) walMode() wal.Mode {
	if db.opts.Variant == baseline.WithoutFlush {
		return wal.ModeCached
	}
	return wal.ModeFlush
}

// zeroLogHead invalidates a recycled PMem entry log's first header.
func (db *DB) zeroLogHead(th *hw.Thread, log *arena.PArena) {
	zero := make([]byte, 8)
	db.m.Cache.NTWrite(th.Clock, log.Region().Addr, zero)
}

// newMemtable builds the next MemTable generation on the given tier.
func (db *DB) newMemtable(t tier, logIdx int) *kvstore.Memtable {
	cfg := kvstore.MemtableConfig{
		Machine: db.m,
		Seed:    uint64(db.seq) + 7,
	}
	if t == tierPMem {
		cfg.Placement = kvstore.PlacePMem
		cfg.EntryArena = db.logs[logIdx]
		cfg.NodeRegion = db.nodeRegion
		cfg.NodeWrites = 2
		switch db.opts.Variant {
		case baseline.Vanilla:
			cfg.FlushInstr = true
		case baseline.WithoutFlush:
			cfg.FlushInstr = false
		case baseline.CacheSegments:
			cfg.SegmentBytes = db.opts.SegmentBytes
			cfg.Partition = db.part
		}
	}
	return kvstore.NewMemtable(cfg)
}

// Name implements kvstore.DB.
func (db *DB) Name() string { return "NoveLSM" + db.opts.Variant.Suffix() }

// Tree exposes the storage component.
func (db *DB) Tree() *lsm.Tree { return db.tree }

// memLimit returns the active MemTable's size budget.
func (db *DB) memLimit() int64 {
	if db.activeTie == tierDRAM {
		return db.opts.DRAMMemBytes
	}
	return db.opts.PMemMemBytes
}

// Put implements kvstore.DB.
func (db *DB) Put(th *hw.Thread, key, value []byte) error {
	return db.write(th, key, value, util.KindValue)
}

// Delete implements kvstore.DB.
func (db *DB) Delete(th *hw.Thread, key []byte) error {
	return db.write(th, key, nil, util.KindDelete)
}

func (db *DB) write(th *hw.Thread, key, value []byte, kind util.ValueKind) error {
	// The shared-MemTable lock: Figure 5(b)'s dominant cost under
	// concurrency. Everything from WAL to index update sits inside it.
	waited := db.lock.Lock(th.Clock)
	th.AddPhase(hw.PhaseLock, waited)
	db.mu.Lock()
	if db.failed != nil || db.closed {
		err := db.failed
		if err == nil {
			err = kvstore.ErrClosed
		}
		db.mu.Unlock()
		db.lock.Unlock(th.Clock)
		return err
	}
	// NoveLSM's PMem MemTable absorbs writes only while the DRAM MemTable is
	// being flushed; once that flush completes, rotate back to DRAM and send
	// the PMem overflow down the flush pipeline too.
	if db.activeTie == tierPMem && db.dramPending == 0 && db.active.Len() > 0 {
		db.sealActiveLocked(th)
	}
	db.seq++
	ikey := util.MakeInternalKey(nil, key, db.seq, kind)

	if db.activeTie == tierDRAM {
		// DRAM MemTables are volatile: WAL first.
		rec := kvstore.EncodeEntry(nil, ikey, value)
		var werr error
		th.InPhase(hw.PhaseWAL, func() {
			_, werr = db.walW.Append(th, rec)
		})
		if werr != nil {
			db.mu.Unlock()
			db.lock.Unlock(th.Clock)
			return werr
		}
	}
	mt := db.active
	db.mu.Unlock()

	if err := mt.Insert(th, ikey, value); err != nil {
		db.lock.Unlock(th.Clock)
		return err
	}

	db.mu.Lock()
	if mt == db.active && mt.ApproximateSize() >= db.memLimit() {
		db.sealActiveLocked(th)
	}
	db.mu.Unlock()
	db.lock.Unlock(th.Clock)
	return nil
}

// sealActiveLocked rotates the active MemTable (db.mu held): DRAM tables go
// to the flush queue and the PMem table takes over (NoveLSM's "PMem MemTable
// absorbs KV pairs once the DRAM MemTable is full"), and vice versa.
func (db *DB) sealActiveLocked(th *hw.Thread) {
	sealed := db.active
	sealedTier := db.activeTie
	sealedLog := db.logCur
	tierName := "dram"
	if sealedTier == tierPMem {
		tierName = "pmem"
	}
	db.opts.Trace.Emit(th.Clock.Now(), "memtable_seal",
		"tier", tierName, "bytes", sealed.ApproximateSize(), "entries", sealed.Len())

	db.active.FlushRemainingSegment(th)
	if sealedTier == tierDRAM {
		// Its WAL is superseded once the table is queued (the flush makes it
		// durable in SSTables; NoveLSM truncates the log at rotation).
		db.activeTie = tierPMem
		// Pick a PMem log that is not still draining; stall if both busy.
		for db.logBusy[0] && db.logBusy[1] {
			db.cond.Wait()
		}
		if db.logBusy[db.logCur] {
			db.logCur ^= 1
		}
		db.logBusy[db.logCur] = true
		th.Clock.AdvanceTo(db.flushes.Server.EarliestFree())
		db.active = db.newMemtable(tierPMem, db.logCur)
	} else {
		db.activeTie = tierDRAM
		// The WAL can only be truncated once every previous DRAM MemTable is
		// durable in SSTables; otherwise a crash here would lose it.
		for db.dramPending > 0 {
			db.cond.Wait()
		}
		db.walW.Reset(th) // keeps the discipline fixed at open
		db.active = db.newMemtable(tierDRAM, 0)
	}
	db.imms = append(db.imms, sealed)
	db.pending.Add(1)
	job := flushJob{mt: sealed, logIdx: -1}
	if sealedTier == tierPMem {
		job.logIdx = sealedLog
	} else {
		db.dramPending++
	}
	db.flushes.Submit(th.Clock.Now(), job)
}

// flushOne is the flush kind's job: it drains one MemTable, sealed at virtual
// time sealedAt, to L0.
func (db *DB) flushOne(_ int, sealedAt int64, job flushJob) (int64, bool) {
	th := db.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseBgFlush.Layer())
	th.Clock.AdvanceTo(sealedAt)
	start := th.Clock.Now()
	db.opts.Trace.Emit(start, "flush_start", "entries", job.mt.Len())
	it := job.mt.NewIter()
	err := db.tree.Flush(th, it, job.mt.MaxSeq())
	done := db.flushes.Server.Submit(sealedAt, th.Clock.Now()-start)
	db.opts.Trace.Emit(th.Clock.Now(), "flush_end",
		"entries", job.mt.Len(), "ns", th.Clock.Now()-start)
	db.mu.Lock()
	if err != nil && db.failed == nil {
		db.failed = err
	}
	for i, mt := range db.imms {
		if mt == job.mt {
			db.imms = append(db.imms[:i], db.imms[i+1:]...)
			break
		}
	}
	if job.logIdx >= 0 {
		db.logs[job.logIdx].Reset()
		db.zeroLogHead(th, db.logs[job.logIdx])
	}
	db.mu.Unlock()
	db.release(job)
	return done, false
}

// release is what a sealed table owes once its flush ended or the crash-stop
// dropped it: its log or its WAL hold, so that a writer parked in
// sealActiveLocked wakes.
func (db *DB) release(job flushJob) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if job.logIdx >= 0 {
		db.logBusy[job.logIdx] = false
	} else {
		db.dramPending--
	}
	db.pending.Add(-1)
	db.cond.Broadcast()
}

// Get implements kvstore.DB. Like LevelDB, the read path briefly takes the
// shared DB mutex to snapshot the MemTable references and sequence number —
// under many reader threads this serialized section (and its coherence tax)
// is what flattens the baselines' read scaling in the paper's Figure 12(a),
// while CacheKV's readers touch only per-core state and DRAM indexes.
func (db *DB) Get(th *hw.Thread, key []byte) ([]byte, error) {
	waited := db.lock.Lock(th.Clock)
	th.AddPhase(hw.PhaseLock, waited)
	th.ChargeDRAM(1) // snapshot the memtable refs + seq under the lock
	db.lock.Unlock(th.Clock)
	db.mu.Lock()
	if db.failed != nil {
		err := db.failed
		db.mu.Unlock()
		return nil, err
	}
	snapshot := db.seq
	tables := make([]*kvstore.Memtable, 0, 1+len(db.imms))
	tables = append(tables, db.active)
	for i := len(db.imms) - 1; i >= 0; i-- {
		tables = append(tables, db.imms[i])
	}
	db.mu.Unlock()

	var res kvstore.UserGetResult
	for _, mt := range tables {
		if v, fseq, kind, ok := mt.Get(th, key, snapshot); ok {
			res.Consider(v, fseq, kind)
		}
	}
	if !res.Found {
		var v []byte
		var fseq uint64
		var found, deleted bool
		var terr error
		th.InPhase(hw.PhaseSST, func() {
			v, fseq, found, deleted, terr = db.tree.Get(th, key, snapshot)
		})
		if terr != nil {
			return nil, terr
		}
		if found {
			res.Consider(v, fseq, util.KindValue)
		} else if deleted {
			res.Consider(nil, fseq, util.KindDelete)
		}
	}
	if !res.Found || res.Kind == util.KindDelete {
		return nil, kvstore.ErrNotFound
	}
	return res.Value, nil
}

// Scan implements kvstore.DB.
func (db *DB) Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	db.mu.Lock()
	snapshot := db.seq
	var its []lsm.Iterator
	its = append(its, db.active.NewIter())
	for i := len(db.imms) - 1; i >= 0; i-- {
		its = append(its, db.imms[i].NewIter())
	}
	db.mu.Unlock()
	var ts lsm.TreeSources
	var st kvstore.ScanState
	return kvstore.ScanSources(&st, db.tree.AppendSources(th, its, &ts), start, snapshot, limit, nil, fn)
}

// FlushAll implements kvstore.DB.
func (db *DB) FlushAll(th *hw.Thread) error {
	db.mu.Lock()
	if db.active.Len() > 0 {
		db.sealActiveLocked(th)
	}
	db.mu.Unlock()
	db.flushes.Wait(func() bool { return db.pending.Load() == 0 })
	th.Clock.AdvanceTo(db.flushes.Server.EarliestFree())
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failed
}

// Close implements kvstore.DB. On a crashed machine it is the crash-stop:
// the store fails and queued flushes are dropped.
func (db *DB) Close(th *hw.Thread) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	crashed := db.m.Crashed()
	if crashed && db.failed == nil {
		db.failed = kvstore.ErrClosed
	}
	db.mu.Unlock()
	if crashed {
		db.bg.Abort()
	}
	db.bg.Close()
	if db.opts.Variant == baseline.CacheSegments {
		// Drain the pinned segments before surrendering the partition so a
		// graceful close is never lossier than an eADR crash (a crashed
		// machine refuses the drain).
		th := db.m.NewThread(0)
		for _, log := range db.logs {
			db.m.Cache.FlushOpt(th.Clock, log.Region().Addr, int(log.Used()))
		}
		db.m.Cache.Release(db.part)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failed
}

var _ kvstore.DB = (*DB)(nil)
