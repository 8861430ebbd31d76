// Package cachekv is the public API of the CacheKV reproduction: an
// LSM-based key-value store designed for persistent CPU caches on
// eADR-enabled Optane platforms (Zhong et al., "Redesigning High-Performance
// LSM-based Key-Value Stores with Persistent CPU Caches", ICDE 2023),
// together with the simulated hardware it runs on and the baseline systems
// the paper compares against.
//
// Because real eADR hardware is unavailable (and unprogrammable from Go),
// every store runs on a simulated platform: an Optane PMem model with
// 256-byte XPLines and a write-combining XPBuffer, behind a persistent
// last-level cache with CAT-style pseudo-locking. Operations are charged
// virtual time on per-session clocks; wall-clock performance of the host
// machine never affects results. See DESIGN.md for the full substitution
// table.
//
// Basic use:
//
//	db, err := cachekv.Open(cachekv.Options{})
//	s := db.Session(0)
//	err = s.Put([]byte("k"), []byte("v"))
//	v, err := s.Get([]byte("k"))
//	db.Close()
//
// Each Session is a simulated thread pinned to a core; concurrent goroutines
// must use separate sessions. SimulateCrash models a power failure and
// reopens the store from its persistent state.
package cachekv

import (
	"fmt"
	"sync/atomic"

	"cachekv/internal/core"
	"cachekv/internal/engines"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

// Engine selects which store design runs on the simulated platform.
type Engine string

// The available engines: the paper's contribution, its two ablation stages,
// and the comparison systems with their eADR variants.
const (
	EngineCacheKV        Engine = "cachekv"
	EnginePCSM           Engine = "pcsm"
	EnginePCSMLIU        Engine = "pcsm+liu"
	EngineNoveLSM        Engine = "novelsm"
	EngineNoveLSMNoFlush Engine = "novelsm-w/o-flush"
	EngineNoveLSMCache   Engine = "novelsm-cache"
	EngineSLMDB          Engine = "slm-db"
	EngineSLMDBNoFlush   Engine = "slm-db-w/o-flush"
	EngineSLMDBCache     Engine = "slm-db-cache"
)

// ErrNotFound is returned by Get for missing (or deleted) keys.
var ErrNotFound = kvstore.ErrNotFound

// ErrClosed is returned by every operation on a store after Close (and by
// SimulateCrash on one). It is a programming error, not a condition to wait
// out: open the store again, do not retry. Test with errors.Is.
var ErrClosed = kvstore.ErrClosed

// ErrStalled is returned by deadline-bounded writes (Options.
// WriteStallDeadline, Session.SetWriteDeadline) when the engine is overloaded
// and the write could not be admitted before its deadline. The write is fully
// absent — nothing was committed — so retrying later is safe. Test with
// errors.Is.
var ErrStalled = core.ErrStalled

// ErrCorrupt is returned by Open, SimulateCrash, Get and Scan when bytes read
// back from media cannot be what the store wrote: a table footer, manifest
// record, directory record or pool geometry that does not decode, or a block
// that fails mid-read. The image is damaged; retrying reads the same bytes.
// Restore from a copy, or open a fresh platform. Test with errors.Is.
var ErrCorrupt = util.ErrCorrupt

// Options configure the platform and the chosen engine. The zero value opens
// CacheKV on the paper's testbed configuration (36 MB eADR LLC, 24 cores)
// with a 4 GiB PMem and the Section IV-A engine defaults.
type Options struct {
	// Engine selects the store design; default EngineCacheKV.
	Engine Engine

	// PMemMB is the simulated PMem capacity in MiB (default 4096).
	PMemMB int
	// VolatileCaches selects the ADR platform (volatile CPU caches) instead
	// of the default eADR. CacheKV loses unflushed data across crashes on
	// such a platform — the point of the paper.
	VolatileCaches bool
	// Cores is the simulated core count (default 24).
	Cores int

	// CacheKV-specific knobs (ignored by other engines). SubMemTableKB 0
	// takes the paper's 2 MiB sub-MemTables. FlushThreads is the number of
	// copy-based flush threads, each a virtual server: one host goroutine
	// feeds them the sealed sub-MemTables in seal order, and each table's copy
	// runs on the earliest-free one. 0 takes the engine default (4, the
	// knee of the paper's flush-thread sweep, Exp#5, Fig 14).
	SubMemTableKB int
	FlushThreads  int

	// Shards partitions the keyspace across N independent engine shards, each
	// with its own sub-MemTable pool, flush pipeline, and lock domain, behind
	// a router that preserves this API (CacheKV-family engines only). 0 or 1
	// opens the classic single-engine store. With Shards > 1, a write whose
	// keys all live on one shard commits exactly as on the single engine, on
	// the session's own thread into its core's sub-MemTable of that shard; a
	// batch spanning shards commits atomically through one batch-log record.
	Shards int

	// CompactionWorkers is how many compaction servers a round runs side by
	// side in virtual time: a round picks up to that many jobs by priority,
	// on disjoint key ranges, each on a compaction thread of its own; LSM
	// compaction is never charged to the spill. 0 takes the default (1).
	// CacheKV-family engines only.
	CompactionWorkers int

	// WriteStallDeadline bounds how long a write may wait for admission when
	// the engine is overloaded (flow control in Slowdown/Stop, a full
	// sub-MemTable pool, a saturated ImmZone), in virtual nanoseconds.
	// Writes that cannot be admitted in time fail with ErrStalled instead of
	// blocking; a stalled write is fully absent. 0 (the default): writes wait
	// indefinitely. Every Session starts with this deadline and may change
	// its own with Session.SetWriteDeadline (CacheKV-family engines).
	WriteStallDeadline int64

	// DisableObs turns off the observability layer: no per-operation
	// latency/attribution collection and no lifecycle event trace. Attribution
	// never advances virtual clocks, so disabling it only saves host-side
	// bookkeeping.
	DisableObs bool

	// SlowOpThreshold controls slow-op dossier capture (virtual ns). Capture
	// is always on while observability is: 0 (the default) uses the adaptive
	// policy — an op is slow when its latency exceeds its own op type's p99
	// × 8, armed at 512 samples and recomputed every 256 — a positive value
	// is a static threshold applied to every op type, and a negative value
	// disables capture. Sub-threshold ops cost one atomic load and allocate
	// nothing. The newest 64 dossiers are read with Collector().SlowOps().
	// Ignored when DisableObs is set.
	SlowOpThreshold int64

	// tune, when set, adjusts the CacheKV-family engine options last, after
	// the fields above: the package's tests reach the pool geometry, the LSM
	// shape and the read-path accelerators through it. SimulateCrash reopens
	// with the same Options, so a tuned store recovers tuned.
	tune func(*core.Options)
}

// validate rejects nonsense configurations with a descriptive error rather
// than letting a negative size wrap around in a uint64 conversion downstream.
func (o Options) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{
		{"PMemMB", o.PMemMB},
		{"Cores", o.Cores},
		{"SubMemTableKB", o.SubMemTableKB},
		{"FlushThreads", o.FlushThreads},
		{"Shards", o.Shards},
		{"CompactionWorkers", o.CompactionWorkers},
	} {
		if f.v < 0 {
			return fmt.Errorf("cachekv: Options.%s must not be negative (got %d); use 0 for the default", f.name, f.v)
		}
	}
	if o.WriteStallDeadline < 0 {
		return fmt.Errorf("cachekv: Options.WriteStallDeadline must not be negative (got %d); use 0 for no deadline", o.WriteStallDeadline)
	}
	return nil
}

// DB is an open store plus its simulated platform.
type DB struct {
	machine *hw.Machine
	inner   kvstore.DB
	store   core.Store // inner's CacheKV-family surface; nil for the baselines
	opts    Options
	closed  atomic.Bool

	// Observability (nil when Options.DisableObs): the collector and trace
	// survive SimulateCrash so post-recovery analysis sees the whole history.
	col   *obs.Collector
	trace *obs.Trace
}

// Open builds a fresh simulated platform and opens the chosen engine on it.
func Open(opts Options) (*DB, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	cfg := hw.DefaultConfig()
	if opts.PMemMB > 0 {
		cfg.PMemBytes = uint64(opts.PMemMB) << 20
	}
	if opts.Cores > 0 {
		cfg.Cores = opts.Cores
	}
	if opts.VolatileCaches {
		cfg.Cache.Domain = cache.ADR
	}
	m := hw.NewMachine(cfg)
	var col *obs.Collector
	var trace *obs.Trace
	if !opts.DisableObs {
		m.EnableObs()
		col = obs.NewCollector()
		trace = obs.NewTrace(obs.DefaultTraceCap)
		if opts.SlowOpThreshold >= 0 {
			var pol obs.SlowOpPolicy
			if opts.SlowOpThreshold > 0 {
				pol.StaticNs = opts.SlowOpThreshold
			}
			col.EnableSlowOps(pol, trace)
		}
	}
	return openOn(m, opts, col, trace)
}

func openOn(m *hw.Machine, opts Options, col *obs.Collector, trace *obs.Trace) (*DB, error) {
	th := m.NewThread(0)
	inner, err := openEngine(m, opts, th, trace)
	if err != nil {
		return nil, err
	}
	store, _ := inner.(core.Store)
	if store != nil {
		// (Re)bind the dossier flow-state context to the engine instance this
		// open produced — after SimulateCrash the collector outlives the old
		// engine.
		col.SetSlowOpContext(func() string { return store.FlowState().String() })
	}
	return &DB{machine: m, inner: inner, store: store, opts: opts, col: col, trace: trace}, nil
}

// unsupported is the one error a baseline engine answers every
// CacheKV-family-only call with.
func (db *DB) unsupported(what string) error {
	return fmt.Errorf("cachekv: engine %s does not support %s", db.EngineName(), what)
}

func openEngine(m *hw.Machine, opts Options, th *hw.Thread, trace *obs.Trace) (kvstore.DB, error) {
	if opts.Engine == "" {
		opts.Engine = EngineCacheKV
	}
	kind, err := engines.Parse(string(opts.Engine))
	if err != nil {
		return nil, fmt.Errorf("cachekv: %w", err)
	}
	if opts.Shards > 1 && kind.Family() != engines.FamilyCacheKV {
		return nil, fmt.Errorf("cachekv: engine %q does not support sharding (Shards=%d)", opts.Engine, opts.Shards)
	}
	// The SSTable file layer takes 1 GiB, or half the PMem when that is less.
	size := engines.NewSizing(min(uint64(1)<<30, m.PMem.Capacity()/2), trace)
	o := &size.Core
	if opts.SubMemTableKB > 0 {
		o.SubMemTableBytes = uint64(opts.SubMemTableKB) << 10
	}
	if opts.FlushThreads > 0 {
		o.FlushThreads = opts.FlushThreads
	}
	o.WriteStallDeadline = opts.WriteStallDeadline
	o.CompactionWorkers = opts.CompactionWorkers
	o.Shards = opts.Shards
	if opts.tune != nil {
		opts.tune(o)
	}
	return engines.Open(kind, m, th, size)
}

// EngineName returns the open engine's display name.
func (db *DB) EngineName() string { return db.inner.Name() }

// Session creates a simulated thread pinned to the given core. The pinning is
// deterministic: the session's virtual thread runs on core modulo
// Options.Cores, in [0, Cores) for a negative core too, and Session(c).Core()
// reports that resolved core. Sessions are not safe for concurrent use; create
// one per goroutine.
//
// On a sharded store (Options.Shards > 1) a session's writes run on its own
// thread too: each lands in the session core's sub-MemTable of the key's
// shard, so a session on core c shares slots with any session on c + i*Cores
// and with no engine thread. Writes route by key hash, not by session core —
// the session's core decides where its CPU time is modelled and which slot of
// a shard it appends to, never which shard its keys land in.
func (db *DB) Session(core int) *Session {
	return &Session{db: db, th: db.machine.NewThread(core), deadline: db.opts.WriteStallDeadline}
}

// Flush forces all buffered writes down to the storage component.
func (db *DB) Flush() error {
	th := db.machine.NewThread(0)
	sp := db.col.StartOp(th, obs.OpFlush)
	err := db.inner.FlushAll(th)
	sp.End()
	return err
}

// Close stops background work. The simulated PMem contents survive; a
// crashed-and-reopened view is available via SimulateCrash.
func (db *DB) Close() error {
	if db.closed.Swap(true) {
		return nil
	}
	th := db.machine.NewThread(0)
	return db.inner.Close(th)
}

// SimulateCrash models a power failure: nothing the store still does reaches
// the media, the cache applies its persistence domain (eADR drains dirty
// lines, ADR drops them), all DRAM state is discarded, and the engine is
// recovered from the surviving bytes. It returns the recovered store; the
// receiver and its sessions must not be used afterwards.
func (db *DB) SimulateCrash() (*DB, error) {
	if db.closed.Swap(true) {
		return nil, fmt.Errorf("cachekv: SimulateCrash: %w", ErrClosed)
	}
	// Crash while the partitions are still pinned (the persistence-domain
	// drain must see the pool), then stop the dead engine before the power
	// comes back: on a crashed machine Close drops its queued work.
	th := db.machine.NewThread(0)
	db.trace.Emit(th.Clock.Now(), "crash", "engine", db.inner.Name())
	db.machine.Crash()
	_ = db.inner.Close(th)
	db.machine.Recover()
	ndb, err := openOn(db.machine, db.opts, db.col, db.trace)
	if err == nil {
		rth := db.machine.NewThread(0)
		ndb.trace.Emit(rth.Clock.Now(), "recovered", "engine", ndb.inner.Name())
	}
	return ndb, err
}

// Metrics is a snapshot of the simulated platform's device counters: the
// PMem XPBuffer and media traffic the paper's figures are drawn from, and the
// LLC's hits and misses. The ratio fields are derived from the raw counters
// next to them and are 0 when the denominator has seen no traffic yet; use
// the raw fields to tell "no traffic" apart from a genuine 0% hit rate. The
// engine's own counters (block cache, filters, flow control, flush and
// compaction) are published once, by Registry.
type Metrics struct {
	WriteHitRatio      float64 // XPBuffer combining ratio (paper Fig. 4)
	WriteAmplification float64 // media bytes written / bytes stored
	MediaWriteBytes    int64
	MediaReadBytes     int64
	CallerWriteBytes   int64 // bytes software asked the PMem device to write
	LineArrivals       int64 // XPBuffer line arrivals (WriteHitRatio denominator)
	LineHits           int64 // XPBuffer write-combining hits (numerator)
	XPLineEvicts       int64 // 256B XPLines evicted from the XPBuffer to media
	RMWEvicts          int64 // evictions that needed a read-modify-write
	CacheHits          int64
	CacheMisses        int64
}

// Metrics returns the platform's cumulative device counters.
func (db *DB) Metrics() Metrics {
	hwSnap := db.machine.PMem.Snapshot()
	cs := db.machine.Cache.Stats()
	return Metrics{
		WriteHitRatio:      hwSnap.WriteHitRatio(),
		WriteAmplification: hwSnap.WriteAmplification(),
		MediaWriteBytes:    hwSnap.MediaWriteB,
		MediaReadBytes:     hwSnap.MediaReadB,
		CallerWriteBytes:   hwSnap.CallerWriteB,
		LineArrivals:       hwSnap.LineArrivals,
		LineHits:           hwSnap.LineHits,
		XPLineEvicts:       hwSnap.XPLineEvicts,
		RMWEvicts:          hwSnap.RMWEvicts,
		CacheHits:          cs.Hits,
		CacheMisses:        cs.Misses,
	}
}

// Registry builds a metrics registry over the platform, the engine, and the
// event trace, ready for text or JSON exposition. Each call rebuilds gauge
// values from live counters; hold the result only briefly.
func (db *DB) Registry() *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterMachine(r, db.machine)
	if db.store != nil {
		db.store.RegisterObs(r)
	}
	obs.RegisterTrace(r, db.trace)
	return r
}

// Trace returns the lifecycle event trace (nil when Options.DisableObs).
func (db *DB) Trace() *obs.Trace { return db.trace }

// Collector returns the per-op attribution collector: latency histograms,
// per-layer time and the slow-op dossiers (SlowOps). It is nil when
// Options.DisableObs, and every method is nil-safe.
func (db *DB) Collector() *obs.Collector { return db.col }

// Session is a simulated thread interacting with the store. Operations
// advance its virtual clock by the modelled hardware cost.
type Session struct {
	db *DB
	th *hw.Thread

	deadline int64      // write deadline in virtual ns, 0 = none (SetWriteDeadline)
	one      core.Batch // scratch for the one-op writes
}

// SetWriteDeadline bounds every later write of this session — Put, Delete,
// DeleteRange, Apply — in the manner of net.Conn.SetWriteDeadline, except
// that ns is relative: each write may stall at most ns virtual nanoseconds
// waiting for admission before it fails with ErrStalled, fully absent. 0
// waits indefinitely. A new session starts with Options.WriteStallDeadline.
// CacheKV-family engines only.
func (s *Session) SetWriteDeadline(ns int64) error {
	if s.db.store == nil {
		return s.db.unsupported("write deadlines")
	}
	if ns < 0 {
		return fmt.Errorf("cachekv: write deadline must not be negative (got %d); use 0 for no deadline", ns)
	}
	s.deadline = ns
	return nil
}

// write commits b through the engine's one mutation entry under the session's
// write deadline.
func (s *Session) write(op obs.Op, b *core.Batch) error {
	sp := s.db.col.StartOp(s.th, op)
	err := s.db.store.Write(s.th, b, s.deadline)
	sp.End()
	return err
}

// writeOne commits a single point op: through the session's scratch batch,
// borrowing key and value for the call only, or straight to a baseline engine.
func (s *Session) writeOne(op obs.Op, kind util.ValueKind, key, value []byte) (err error) {
	sp := s.db.col.StartOp(s.th, op)
	switch {
	case s.db.store != nil:
		err = s.db.store.Write(s.th, s.one.Borrow(kind, key, value), s.deadline)
		s.one.Borrow(kind, nil, nil) // drop the caller's slices
	case kind == util.KindValue:
		err = s.db.inner.Put(s.th, key, value)
	default:
		err = s.db.inner.Delete(s.th, key)
	}
	sp.End()
	return err
}

// Put stores key -> value.
func (s *Session) Put(key, value []byte) error {
	return s.writeOne(obs.OpPut, util.KindValue, key, value)
}

// Get returns the freshest value for key, or ErrNotFound.
func (s *Session) Get(key []byte) ([]byte, error) {
	sp := s.db.col.StartOp(s.th, obs.OpGet)
	v, err := s.db.inner.Get(s.th, key)
	sp.End()
	return v, err
}

// Delete removes key.
func (s *Session) Delete(key []byte) error {
	return s.writeOne(obs.OpDelete, util.KindDelete, key, nil)
}

// DeleteRange deletes every key in [start, end) by writing a single range
// tombstone — O(1) in the number of keys covered. A start >= end range is an
// empty no-op. On a sharded store the tombstone commits to every shard
// atomically through the batch log. CacheKV-family engines only.
func (s *Session) DeleteRange(start, end []byte) error {
	if s.db.store == nil {
		return s.db.unsupported("DeleteRange")
	}
	s.one.Reset()
	s.one.DeleteRange(start, end)
	return s.write(obs.OpDeleteRange, &s.one)
}

// IngestEntry is one key/value pair of an Ingest batch.
type IngestEntry struct {
	Key   []byte
	Value []byte
}

// Ingest bulk-loads entries — strictly ascending unique keys — as external
// SSTables installed atomically in the LSM tree, bypassing the memory
// component entirely. The whole batch becomes the newest version of its keys.
// On a sharded store entries route to their owning shards; each shard's slice
// installs atomically, though not atomically across shards. CacheKV-family
// engines only.
func (s *Session) Ingest(entries []IngestEntry) error {
	if s.db.store == nil {
		return s.db.unsupported("Ingest")
	}
	conv := make([]lsm.IngestEntry, len(entries))
	for i, ent := range entries {
		conv[i] = lsm.IngestEntry{Key: ent.Key, Value: ent.Value}
	}
	sp := s.db.col.StartOp(s.th, obs.OpIngest)
	err := s.db.store.Ingest(s.th, conv)
	sp.End()
	return err
}

// Scan visits up to limit live keys >= start in order, stopping early when
// fn returns false; it reports how many entries were visited. key and value
// are valid only during the call to fn — they may point into a block window
// the scan reuses for its next row — so fn must copy what it keeps. A scan
// that cannot read a table block returns the error (ErrCorrupt for a block
// that does not decode) and the rows delivered before it are a prefix, not
// the answer.
func (s *Session) Scan(start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	sp := s.db.col.StartOp(s.th, obs.OpScan)
	n, err := s.db.inner.Scan(s.th, start, limit, fn)
	sp.End()
	return n, err
}

// Batch is an atomic multi-key write (CacheKV engines only): every entry
// lands in the session core's sub-MemTable and becomes durable with a single
// header CAS, so a crash exposes either all of the batch or none of it.
type Batch struct{ inner core.Batch }

// Put queues a write into the batch.
func (b *Batch) Put(key, value []byte) { b.inner.Put(key, value) }

// Delete queues a tombstone into the batch.
func (b *Batch) Delete(key []byte) { b.inner.Delete(key) }

// DeleteRange queues a range tombstone covering [start, end); it commits
// atomically with the rest of the batch.
func (b *Batch) DeleteRange(start, end []byte) { b.inner.DeleteRange(start, end) }

// Len reports the queued operation count.
func (b *Batch) Len() int { return b.inner.Len() }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.inner.Reset() }

// Apply commits a batch atomically. Only CacheKV-family engines support
// batches; other engines return an error. On a sharded store a batch whose
// keys hash to one shard commits with a single CAS exactly like the classic
// engine; a cross-shard batch (or one holding a range tombstone) commits with
// one batch-log record and stays all-or-nothing across crashes. A
// batch that stalls past the session's write deadline is rejected before any
// of its entries commit.
func (s *Session) Apply(b *Batch) error {
	if s.db.store == nil {
		return s.db.unsupported("atomic batches")
	}
	return s.write(obs.OpBatch, &b.inner)
}

// VirtualNanos returns the session's virtual clock — the modelled time its
// operations have consumed on the simulated platform.
func (s *Session) VirtualNanos() int64 { return s.th.Clock.Now() }

// Core returns the simulated core this session is pinned to.
func (s *Session) Core() int { return s.th.Core }
