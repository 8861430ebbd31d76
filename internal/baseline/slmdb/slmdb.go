// Package slmdb reimplements SLM-DB (Kaiyrakhmet et al., USENIX FAST'19) as
// the paper describes and configures it: a single persistent MemTable in
// PMem (in-place durability, no WAL), a global B+-tree in PMem that maps
// every persisted key to the SSTable holding it, and a *single-level* LSM
// organization — SSTables live in one level and are located via the B+-tree
// rather than by level search, so no hierarchical compaction runs.
//
// The paper's eADR variants apply exactly as for NoveLSM: -w/o-flush drops
// the flush instructions; -cache stages the MemTable through pinned LLC
// segments (with the MemTable enlarged to 4 GiB, scaled here).
package slmdb

import (
	"sync"

	"cachekv/internal/arena"
	"cachekv/internal/baseline"
	"cachekv/internal/btree"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

// Options configure an SLM-DB instance (sizes scaled from the paper's 64 MiB
// MemTable / 4 GiB for the -cache comparison).
type Options struct {
	Variant       baseline.Variant
	MemBytes      int64  // persistent MemTable size (8 MiB scaled; paper 64 MiB)
	SegmentBytes  uint64 // pinned cache segment for -cache (12 MiB)
	NodeBytes     uint64 // PMem B+-tree node area
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
		MemBytes:      8 << 20,
		SegmentBytes:  12 << 20,
		NodeBytes:     64 << 20,
		FSBytes:       256 << 20,
		ManifestBytes: 4 << 20,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.MemBytes == 0 {
		o.MemBytes = d.MemBytes
	}
	if o.SegmentBytes == 0 {
		o.SegmentBytes = d.SegmentBytes
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
	o.LSM.SingleLevel = true
	return o
}

// DB is an SLM-DB instance.
type DB struct {
	m    *hw.Machine
	opts Options
	part cache.PartitionID

	lock *sim.VMutex // the shared persistent-MemTable mutex

	mu     sync.Mutex
	active *kvstore.Memtable
	imms   []*kvstore.Memtable
	seq    uint64

	// The global B+-tree in PMem: user key -> SSTable number (fixed64).
	// Queries pay PMem latency per node hop; updates happen at flush time,
	// contending with reads on the tree's own lock — the paper's explanation
	// for SLM-DB's flat multi-thread read scaling.
	index      *btree.Tree
	nodeRegion hw.Region

	logs        [2]*arena.PArena
	logBusy     [2]bool
	logCur      int
	flushCh     chan flushJob
	flushWG     sync.WaitGroup
	flushServer *sim.ServerPool
	pending     sync.WaitGroup
	cond        *sync.Cond

	fs   *pmemfs.FS
	tree *lsm.Tree

	failed  error
	closed  bool
	crashed bool
}

type flushJob struct {
	mt       *kvstore.Memtable
	logIdx   int
	sealedAt int64
}

// Open creates (or recovers) an SLM-DB instance on machine m.
func Open(m *hw.Machine, opts Options, th *hw.Thread) (*DB, error) {
	opts = opts.withDefaults()
	part, err := baseline.ReservePartition(m, opts.Variant, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	db := &DB{
		m:           m,
		opts:        opts,
		part:        part,
		lock:        sim.NewVMutex(m.Costs),
		index:       btree.New(),
		flushCh:     make(chan flushJob, 8),
		flushServer: sim.NewServerPool(1),
	}
	db.cond = sync.NewCond(&db.mu)

	logR0 := baseline.LookupOrAlloc(m, "slmdb.plog0", uint64(opts.MemBytes)*2)
	logR1 := baseline.LookupOrAlloc(m, "slmdb.plog1", uint64(opts.MemBytes)*2)
	db.logs[0] = arena.NewPArena(logR0)
	db.logs[1] = arena.NewPArena(logR1)
	db.nodeRegion = baseline.LookupOrAlloc(m, "slmdb.nodes", opts.NodeBytes)
	fsRegion := baseline.LookupOrAlloc(m, "slmdb.fs", opts.FSBytes)
	manifestRegion := baseline.LookupOrAlloc(m, "slmdb.manifest", opts.ManifestBytes)

	db.fs, err = pmemfs.Mount(m, fsRegion, th)
	if err != nil {
		return nil, err
	}
	db.tree, err = lsm.Open(m, db.fs, manifestRegion, opts.LSM, th)
	if err != nil {
		return nil, err
	}
	db.seq = db.tree.LastSeq()

	// Rebuild the B+-tree from the single level's table metadata (SLM-DB
	// persists its B+-tree; our reconstruction pays the equivalent scan cost
	// once at open).
	for _, f := range db.tree.Files(1) {
		db.indexTable(th, f.Num)
	}

	// Recover the persistent MemTable from its entry logs.
	db.active = db.newMemtable(0)
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
	if replayed > 0 {
		opts.Trace.Emit(th.Clock.Now(), "recovery_end",
			"engine", db.Name(), "replayed", replayed, "last_seq", db.seq)
		db.logBusy[0] = true
		db.sealActiveLocked(th)
	} else {
		db.logBusy[0] = true // active memtable owns log 0
	}

	db.flushWG.Add(1)
	go db.flusher()
	return db, nil
}

func (db *DB) zeroLogHead(th *hw.Thread, log *arena.PArena) {
	zero := make([]byte, 8)
	db.m.Cache.NTWrite(th.Clock, log.Region().Addr, zero)
}

func (db *DB) newMemtable(logIdx int) *kvstore.Memtable {
	cfg := kvstore.MemtableConfig{
		Machine:    db.m,
		Placement:  kvstore.PlacePMem,
		EntryArena: db.logs[logIdx],
		NodeRegion: db.nodeRegion,
		NodeWrites: 2,
		Seed:       uint64(db.seq) + 13,
		// SLM-DB's persistent MemTable pays for allocator metadata and
		// validity-bitmap persistence on every insert; the paper measures it
		// as the slowest writer of the group (Figures 5(a), 10, 12(b)).
		ExtraWriteNs: 4000,
	}
	switch db.opts.Variant {
	case baseline.Vanilla:
		cfg.FlushInstr = true
	case baseline.WithoutFlush:
		cfg.FlushInstr = false
	case baseline.CacheSegments:
		cfg.SegmentBytes = db.opts.SegmentBytes
		cfg.Partition = db.part
	}
	return kvstore.NewMemtable(cfg)
}

// Name implements kvstore.DB.
func (db *DB) Name() string { return "SLM-DB" + db.opts.Variant.Suffix() }

// Tree exposes the storage component.
func (db *DB) Tree() *lsm.Tree { return db.tree }

// Index exposes the global B+-tree (tests).
func (db *DB) Index() *btree.Tree { return db.index }

// btCharge converts B+-tree node hops into PMem latency on th.
func (db *DB) btCharge(th *hw.Thread) btree.ChargeFunc {
	return func(visits int) {
		th.Clock.Advance(int64(visits) * db.m.Costs.PMemReadRand)
	}
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
	db.seq++
	ikey := util.MakeInternalKey(nil, key, db.seq, kind)
	mt := db.active
	db.mu.Unlock()

	if err := mt.Insert(th, ikey, value); err != nil {
		db.lock.Unlock(th.Clock)
		return err
	}

	db.mu.Lock()
	if mt == db.active && mt.ApproximateSize() >= db.opts.MemBytes {
		db.sealActiveLocked(th)
	}
	db.mu.Unlock()
	db.lock.Unlock(th.Clock)
	return nil
}

// sealActiveLocked rotates the persistent MemTable (db.mu held).
func (db *DB) sealActiveLocked(th *hw.Thread) {
	sealed := db.active
	sealedLog := db.logCur
	db.opts.Trace.Emit(th.Clock.Now(), "memtable_seal",
		"bytes", sealed.ApproximateSize(), "entries", sealed.Len())
	sealed.FlushRemainingSegment(th)
	next := db.logCur ^ 1
	for db.logBusy[next] {
		db.cond.Wait()
	}
	db.logBusy[next] = true
	db.logCur = next
	th.Clock.AdvanceTo(db.flushServer.EarliestFree())
	db.active = db.newMemtable(next)
	db.imms = append(db.imms, sealed)
	db.pending.Add(1)
	db.flushCh <- flushJob{mt: sealed, logIdx: sealedLog, sealedAt: th.Clock.Now()}
}

// Halt crash-stops the store: operations fail immediately and background
// flushes abandon their queued MemTables (a power failure, not a shutdown).
func (db *DB) Halt() {
	db.mu.Lock()
	db.crashed = true
	if db.failed == nil {
		db.failed = kvstore.ErrClosed
	}
	db.mu.Unlock()
}

// flusher drains sealed MemTables into single-level SSTables and installs
// every flushed key into the global B+-tree.
func (db *DB) flusher() {
	defer db.flushWG.Done()
	for job := range db.flushCh {
		db.mu.Lock()
		if db.crashed {
			db.logBusy[job.logIdx] = false
			db.cond.Broadcast()
			db.mu.Unlock()
			db.pending.Done()
			continue
		}
		db.mu.Unlock()
		th := db.m.NewThread(0)
		th.Clock.SetLabel(hw.PhaseBgFlush.Layer())
		th.Clock.AdvanceTo(job.sealedAt)
		start := th.Clock.Now()
		db.opts.Trace.Emit(start, "flush_start", "entries", job.mt.Len())
		before := db.tree.Files(1)
		it := job.mt.NewIter()
		err := db.tree.Flush(th, it, job.mt.MaxSeq())
		if err == nil {
			// Index the new tables' keys in the B+-tree.
			seen := make(map[uint64]bool, len(before))
			for _, f := range before {
				seen[f.Num] = true
			}
			for _, f := range db.tree.Files(1) {
				if !seen[f.Num] {
					db.indexTable(th, f.Num)
				}
			}
		}
		db.flushServer.Submit(job.sealedAt, th.Clock.Now()-start)
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
		db.logs[job.logIdx].Reset()
		db.zeroLogHead(th, db.logs[job.logIdx])
		db.logBusy[job.logIdx] = false
		db.cond.Broadcast()
		db.mu.Unlock()
		db.pending.Done()
	}
}

// indexTable walks one SSTable and points the B+-tree at it for every user
// key it holds.
func (db *DB) indexTable(th *hw.Thread, num uint64) {
	it, err := db.newTableIter(th, num)
	if err != nil {
		return
	}
	it.SeekToFirst()
	var lastUser []byte
	charge := db.btCharge(th)
	for it.Valid() {
		u := it.Key().UserKey()
		if lastUser == nil || string(u) != string(lastUser) {
			db.index.Insert(append([]byte(nil), u...), util.PutFixed64(nil, num), charge)
			lastUser = append(lastUser[:0], u...)
		}
		it.Next()
	}
}

func (db *DB) newTableIter(th *hw.Thread, num uint64) (lsm.Iterator, error) {
	return db.tree.TableIterator(th, num)
}

// Get implements kvstore.DB: persistent MemTable first, then one directed
// SSTable probe via the global B+-tree. As in LevelDB, the read briefly
// takes the shared DB mutex to snapshot MemTable references — the serialized
// section behind the paper's flat SLM-DB read scaling ("intensive access
// requests are prone to competing for the shared SSTable metadata").
func (db *DB) Get(th *hw.Thread, key []byte) ([]byte, error) {
	waited := db.lock.Lock(th.Clock)
	th.AddPhase(hw.PhaseLock, waited)
	th.ChargeDRAM(1)
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
		var terr error
		th.InPhase(hw.PhaseSST, func() {
			if loc, ok := db.index.Get(key, db.btCharge(th)); ok {
				num := util.Fixed64(loc)
				v, fseq, kind, found, err := db.tree.GetInTable(th, num, key, snapshot)
				if err != nil {
					terr = err
					return
				}
				if found {
					res.Consider(v, fseq, kind)
				}
			}
		})
		if terr != nil {
			return nil, terr
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
	db.pending.Wait()
	th.Clock.AdvanceTo(db.flushServer.EarliestFree())
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failed
}

// Close implements kvstore.DB.
func (db *DB) Close(th *hw.Thread) error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	db.mu.Unlock()
	db.pending.Wait()
	close(db.flushCh)
	db.flushWG.Wait()
	db.mu.Lock()
	crashed := db.crashed
	db.mu.Unlock()
	if db.opts.Variant == baseline.CacheSegments && !crashed {
		// Drain the pinned segments before surrendering the partition so a
		// graceful close is never lossier than an eADR crash.
		th := db.m.NewThread(0)
		for _, log := range db.logs {
			db.m.Cache.FlushOpt(th.Clock, log.Region().Addr, int(log.Used()))
		}
	}
	if db.opts.Variant == baseline.CacheSegments {
		db.m.Cache.Release(db.part)
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.failed
}

var _ kvstore.DB = (*DB)(nil)
