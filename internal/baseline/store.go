package baseline

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/arena"
	"cachekv/internal/bgpool"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

// Table is one MemTable generation: its skiplist, the PMem entry log it
// appends to in place (-1: none — a DRAM table, which its engine makes durable
// itself) and the size at which it is sealed.
type Table struct {
	MT    *kvstore.Memtable
	Log   int
	Limit int64
}

// Tier is where an engine's MemTables live and how each is made durable. The
// store calls every method with its state mutex held, except during Open.
type Tier interface {
	// First returns the store's first active table.
	First(s *Store, th *hw.Thread) Table
	// Recover replays what the tier logged itself into the active table,
	// once the store has replayed its PMem entry logs.
	Recover(th *hw.Thread, insert func(util.InternalKey, []byte))
	// Rotate reports, before a write takes its sequence number, whether the
	// active table must be sealed first.
	Rotate(active Table) bool
	// Log makes a write to the active table durable before it is inserted.
	Log(th *hw.Thread, active Table, ikey util.InternalKey, value []byte) error
	// Next returns the active table that follows sealed.
	Next(s *Store, th *hw.Thread, sealed Table) Table
	// Released is told that sealed's flush ended or was dropped.
	Released(sealed Table)
}

// PMem is the tier of a store whose every MemTable lives in PMem, durable in
// place (SLM-DB).
type PMem struct{}

func (PMem) First(s *Store, th *hw.Thread) Table                   { return s.PMemTable(th) }
func (PMem) Recover(*hw.Thread, func(util.InternalKey, []byte))    {}
func (PMem) Rotate(Table) bool                                     { return false }
func (PMem) Log(*hw.Thread, Table, util.InternalKey, []byte) error { return nil }
func (PMem) Next(s *Store, th *hw.Thread, _ Table) Table           { return s.PMemTable(th) }
func (PMem) Released(Table)                                        {}

// Index is how a read the MemTables miss finds its key among the tree's
// tables.
type Index interface {
	// Sync catches the index up with the tree's tables: once the tree is
	// open, and after every flush.
	Sync(th *hw.Thread, tree *lsm.Tree)
	// Get reads the newest version of key at snapshot from the tree.
	Get(th *hw.Thread, tree *lsm.Tree, key []byte, snapshot uint64) (value []byte, seq uint64, kind util.ValueKind, found bool, err error)
}

// Levels is LevelDB's index: the tree's own level-by-level search (NoveLSM).
type Levels struct{}

func (Levels) Sync(*hw.Thread, *lsm.Tree) {}

func (Levels) Get(th *hw.Thread, tree *lsm.Tree, key []byte, snapshot uint64) ([]byte, uint64, util.ValueKind, bool, error) {
	v, seq, found, deleted, err := tree.Get(th, key, snapshot)
	if !found && deleted {
		return nil, seq, util.KindDelete, true, err
	}
	return v, seq, util.KindValue, found, err
}

// Engine is what one baseline brings to the store.
type Engine struct {
	Name   string // display name, before the variant's suffix
	Prefix string // of the store's PMem region names
	// Seed, plus the sequence number, seeds each MemTable's skiplist heights.
	Seed uint64
	// ExtraWriteNs is charged per PMem MemTable insert for the engine's own
	// persistent bookkeeping.
	ExtraWriteNs int64
	Tier         Tier
	Index        Index
}

// Store is a baseline engine: a LevelDB-style store whose MemTables drain one
// at a time into one lsm.Tree. What differs between NoveLSM and SLM-DB comes
// in through Engine.
type Store struct {
	m    *hw.Machine
	opts Options
	eng  Engine
	part cache.PartitionID // pinned partition for the -cache variant

	// The single shared-MemTable mutex of Ob2, serializing every write in
	// virtual time.
	lock *sim.VMutex

	mu     sync.Mutex // protects what follows (real concurrency)
	cond   *sync.Cond // broadcast when a sealed table's flush ends or is dropped
	active Table
	imms   []*kvstore.Memtable
	seq    uint64
	// Ping-pong PMem entry logs: the active PMem MemTable appends to one
	// while the sealed one drains to the tree.
	logs       [2]*arena.PArena
	logBusy    [2]bool
	logCur     int
	nodeRegion hw.Region

	// flushes drains sealed MemTables to the tree one at a time. The two
	// ping-pong logs allow at most three sealed tables at once, well inside
	// its queue.
	flushes *bgpool.Pool[Table]
	pending atomic.Int64 // sealed tables not yet flushed or dropped

	fs   *pmemfs.FS
	tree *lsm.Tree

	failed error
	closed bool
}

// Open creates (or recovers) a store on machine m. Crash recovery replays
// both PMem entry logs, then whatever the tier logged itself, into a fresh
// active table, and seals it straight down to the tree so the logs stay reset.
func Open(m *hw.Machine, opts Options, eng Engine, th *hw.Thread) (*Store, error) {
	part, err := reservePartition(m, opts.Variant, opts.SegmentBytes)
	if err != nil {
		return nil, err
	}
	s := &Store{m: m, opts: opts, eng: eng, part: part, lock: sim.NewVMutex(m.Costs)}
	s.cond = sync.NewCond(&s.mu)
	region := func(name string, size uint64) hw.Region {
		r, _ := m.FindOrAlloc(eng.Prefix+"."+name, size, 4096)
		return r
	}
	for i := range s.logs {
		s.logs[i] = arena.NewPArena(region(fmt.Sprintf("plog%d", i), uint64(opts.MemBytes)*2))
	}
	s.nodeRegion = region("nodes", opts.NodeBytes)
	fsRegion := region("fs", opts.FSBytes)
	manifestRegion := region("manifest", opts.ManifestBytes)
	if s.fs, err = pmemfs.Mount(m, fsRegion, th); err != nil {
		return nil, err
	}
	if s.tree, err = lsm.Open(m, s.fs, manifestRegion, opts.LSM, th); err != nil {
		return nil, err
	}
	s.seq = s.tree.LastSeq()
	eng.Index.Sync(th, s.tree)
	s.flushes = bgpool.New(bgpool.Config{Name: "flush", Queue: 8}, s.flushOne, s.release, func(err error) { panic(err) })

	s.active = eng.Tier.First(s, th)
	replayed := 0
	insert := func(ik util.InternalKey, val []byte) {
		s.active.MT.Insert(th, ik, val)
		s.seq = max(s.seq, ik.Seq())
		replayed++
	}
	for _, log := range s.logs {
		kvstore.RecoverEntries(m, log.Region(), th, insert)
		log.Reset()
		s.zeroLogHead(th, log)
	}
	eng.Tier.Recover(th, insert)
	if replayed > 0 {
		opts.Trace.Emit(th.Clock.Now(), "recovery_end",
			"engine", s.Name(), "replayed", replayed, "last_seq", s.seq)
		s.sealLocked(th)
	}
	return s, nil
}

// zeroLogHead invalidates a recycled PMem entry log's first header.
func (s *Store) zeroLogHead(th *hw.Thread, log *arena.PArena) {
	s.m.Cache.NTWrite(th.Clock, log.Region().Addr, make([]byte, 8))
}

// PMemTable returns a fresh MemTable on a PMem entry log that is not still
// draining (s.mu held; it waits while both are), starting once the flush
// server frees up.
func (s *Store) PMemTable(th *hw.Thread) Table {
	for s.logBusy[0] && s.logBusy[1] {
		s.cond.Wait()
	}
	if s.logBusy[s.logCur] {
		s.logCur ^= 1
	}
	s.logBusy[s.logCur] = true
	th.Clock.AdvanceTo(s.flushes.Server.EarliestFree())
	cfg := kvstore.MemtableConfig{
		Machine:      s.m,
		Placement:    kvstore.PlacePMem,
		EntryArena:   s.logs[s.logCur],
		NodeRegion:   s.nodeRegion,
		NodeWrites:   2,
		Seed:         s.seq + s.eng.Seed,
		ExtraWriteNs: s.eng.ExtraWriteNs,
	}
	switch s.opts.Variant {
	case Vanilla:
		cfg.FlushInstr = true
	case CacheSegments:
		cfg.SegmentBytes = s.opts.SegmentBytes
		cfg.Partition = s.part
	}
	return Table{MT: kvstore.NewMemtable(cfg), Log: s.logCur, Limit: s.opts.MemBytes}
}

// DRAMTable returns a fresh MemTable in DRAM, sealed at limit bytes.
func (s *Store) DRAMTable(limit int64) Table {
	mt := kvstore.NewMemtable(kvstore.MemtableConfig{Machine: s.m, Seed: s.seq + s.eng.Seed})
	return Table{MT: mt, Log: -1, Limit: limit}
}

// Wait waits (s.mu held) until a sealed table's flush ends or is dropped.
func (s *Store) Wait() { s.cond.Wait() }

// Name implements kvstore.DB.
func (s *Store) Name() string { return s.eng.Name + s.opts.Variant.Suffix() }

// Tree exposes the storage component.
func (s *Store) Tree() *lsm.Tree { return s.tree }

// MemTableLock exposes the shared MemTable mutex (its Stats count the
// serialization).
func (s *Store) MemTableLock() *sim.VMutex { return s.lock }

// errLocked is the error that refuses an operation (s.mu held).
func (s *Store) errLocked() error {
	if s.failed == nil && s.closed {
		return kvstore.ErrClosed
	}
	return s.failed
}

// Put implements kvstore.DB.
func (s *Store) Put(th *hw.Thread, key, value []byte) error {
	return s.write(th, key, value, util.KindValue)
}

// Delete implements kvstore.DB.
func (s *Store) Delete(th *hw.Thread, key []byte) error {
	return s.write(th, key, nil, util.KindDelete)
}

func (s *Store) write(th *hw.Thread, key, value []byte, kind util.ValueKind) error {
	// The shared-MemTable lock: Figure 5(b)'s dominant cost under
	// concurrency. Everything from logging to index update sits inside it.
	waited := s.lock.Lock(th.Clock)
	th.AddPhase(hw.PhaseLock, waited)
	defer s.lock.Unlock(th.Clock)
	s.mu.Lock()
	if err := s.errLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.eng.Tier.Rotate(s.active) {
		s.sealLocked(th)
	}
	s.seq++
	ikey := util.MakeInternalKey(nil, key, s.seq, kind)
	if err := s.eng.Tier.Log(th, s.active, ikey, value); err != nil {
		s.mu.Unlock()
		return err
	}
	mt := s.active
	s.mu.Unlock()

	if err := mt.MT.Insert(th, ikey, value); err != nil {
		return err
	}

	s.mu.Lock()
	if mt.MT == s.active.MT && mt.MT.ApproximateSize() >= mt.Limit {
		s.sealLocked(th)
	}
	s.mu.Unlock()
	return nil
}

// sealLocked (s.mu held) queues the active table for its flush and installs
// the tier's next one.
func (s *Store) sealLocked(th *hw.Thread) {
	sealed := s.active
	tier := "pmem"
	if sealed.Log < 0 {
		tier = "dram"
	}
	s.opts.Trace.Emit(th.Clock.Now(), "memtable_seal",
		"tier", tier, "bytes", sealed.MT.ApproximateSize(), "entries", sealed.MT.Len())
	sealed.MT.FlushRemainingSegment(th)
	s.active = s.eng.Tier.Next(s, th, sealed)
	s.imms = append(s.imms, sealed.MT)
	s.pending.Add(1)
	s.flushes.Submit(th.Clock.Now(), sealed)
}

// flushOne is the flush pool's job: it drains one table, sealed at virtual
// time sealedAt, into the tree, catches the index up and recycles the table's
// entry log.
func (s *Store) flushOne(sealedAt int64, t Table) {
	th := s.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseBgFlush.Layer())
	th.Clock.AdvanceTo(sealedAt)
	start := th.Clock.Now()
	s.opts.Trace.Emit(start, "flush_start", "entries", t.MT.Len())
	err := s.tree.Flush(th, t.MT.NewIter(), t.MT.MaxSeq())
	if err == nil {
		s.eng.Index.Sync(th, s.tree)
	}
	s.flushes.Server.Submit(sealedAt, th.Clock.Now()-start)
	s.opts.Trace.Emit(th.Clock.Now(), "flush_end",
		"entries", t.MT.Len(), "ns", th.Clock.Now()-start)
	s.mu.Lock()
	if err != nil && s.failed == nil {
		s.failed = err
	}
	for i, mt := range s.imms {
		if mt == t.MT {
			s.imms = append(s.imms[:i], s.imms[i+1:]...)
			break
		}
	}
	if t.Log >= 0 {
		s.logs[t.Log].Reset()
		s.zeroLogHead(th, s.logs[t.Log])
	}
	s.mu.Unlock()
	s.release(t)
}

// release is what a sealed table owes once its flush ended or the crash-stop
// dropped it: its log, and whatever it holds of the tier, so that a writer
// waiting in a seal wakes.
func (s *Store) release(t Table) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.Log >= 0 {
		s.logBusy[t.Log] = false
	}
	s.eng.Tier.Released(t)
	s.pending.Add(-1)
	s.cond.Broadcast()
}

// view returns what a read sees: the sequence number and the MemTables,
// newest first — or the error that refuses the read.
func (s *Store) view() (uint64, []*kvstore.Memtable, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.errLocked(); err != nil {
		return 0, nil, err
	}
	tables := make([]*kvstore.Memtable, 0, 1+len(s.imms))
	tables = append(tables, s.active.MT)
	for i := len(s.imms) - 1; i >= 0; i-- {
		tables = append(tables, s.imms[i])
	}
	return s.seq, tables, nil
}

// Get implements kvstore.DB. Like LevelDB, the read path briefly takes the
// shared DB mutex to snapshot the MemTable references and sequence number —
// under many reader threads this serialized section (and its coherence tax)
// is what flattens the baselines' read scaling in the paper's Figure 12(a),
// while CacheKV's readers touch only per-core state and DRAM indexes.
func (s *Store) Get(th *hw.Thread, key []byte) ([]byte, error) {
	waited := s.lock.Lock(th.Clock)
	th.AddPhase(hw.PhaseLock, waited)
	th.ChargeDRAM(1) // snapshot the memtable refs + seq under the lock
	s.lock.Unlock(th.Clock)
	snapshot, tables, err := s.view()
	if err != nil {
		return nil, err
	}

	var res kvstore.UserGetResult
	for _, mt := range tables {
		if v, fseq, kind, ok := mt.Get(th, key, snapshot); ok {
			res.Consider(v, fseq, kind)
		}
	}
	if !res.Found {
		var v []byte
		var fseq uint64
		var kind util.ValueKind
		var found bool
		th.InPhase(hw.PhaseSST, func() {
			v, fseq, kind, found, err = s.eng.Index.Get(th, s.tree, key, snapshot)
		})
		if err != nil {
			return nil, err
		}
		if found {
			res.Consider(v, fseq, kind)
		}
	}
	if !res.Found || res.Kind == util.KindDelete {
		return nil, kvstore.ErrNotFound
	}
	return res.Value, nil
}

// Scan implements kvstore.DB.
func (s *Store) Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	snapshot, tables, err := s.view()
	if err != nil {
		return 0, err
	}
	its := make([]lsm.Iterator, 0, len(tables))
	for _, mt := range tables {
		its = append(its, mt.NewIter())
	}
	var ts lsm.TreeSources
	var st kvstore.ScanState
	return kvstore.ScanSources(&st, s.tree.AppendSources(th, its, &ts), start, snapshot, limit, nil, fn)
}

// FlushAll implements kvstore.DB.
func (s *Store) FlushAll(th *hw.Thread) error {
	s.mu.Lock()
	if err := s.errLocked(); err != nil {
		s.mu.Unlock()
		return err
	}
	if s.active.MT.Len() > 0 {
		s.sealLocked(th)
	}
	s.mu.Unlock()
	s.flushes.Wait(func() bool { return s.pending.Load() == 0 })
	th.Clock.AdvanceTo(s.flushes.Server.EarliestFree())
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

// Close implements kvstore.DB. On a crashed machine it is the crash-stop:
// the store fails and queued flushes are dropped.
func (s *Store) Close(*hw.Thread) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	crashed := s.m.Crashed()
	if crashed && s.failed == nil {
		s.failed = kvstore.ErrClosed
	}
	s.mu.Unlock()
	if crashed {
		s.flushes.Abort()
	}
	s.flushes.Close()
	if s.opts.Variant == CacheSegments {
		// Drain the pinned segments before surrendering the partition so a
		// graceful close is never lossier than an eADR crash (a crashed
		// machine refuses the drain).
		th := s.m.NewThread(0)
		for _, log := range s.logs {
			s.m.Cache.FlushOpt(th.Clock, log.Region().Addr, int(log.Used()))
		}
		s.m.Cache.Release(s.part)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failed
}

var _ kvstore.DB = (*Store)(nil)
