package core

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"cachekv/internal/arena"
	"cachekv/internal/bgpool"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/pmemfs"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// Options configure a CacheKV store. Zero values take the paper's Section IV-A
// defaults, noted per field.
type Options struct {
	PoolBytes        uint64 // sub-MemTable pool size pinned in the LLC (12 MiB)
	SubMemTableBytes uint64 // sub-MemTable size (2 MiB): elasticity halves it, and merges back no further
	// FlushThreads is the number of copy-based flush threads (4: the knee
	// of the paper's flush-thread sweep, Exp#5, and its Exp#6/#7 setting).
	// Each is a virtual server: one host goroutine takes the sealed
	// sub-MemTables in seal order and books each copy on the earliest-free
	// server.
	FlushThreads  int
	SyncThreshold int    // writes per sub-MemTable before a lazy sync (64)
	ImmZoneBytes  uint64 // PMem staging zone for flushed tables (32 MiB)

	// Ablation switches: the paper's PCSM / PCSM+LIU / CacheKV breakdown.
	// SkiplistCompaction false drops a flushed table's keys from the
	// active-key table at its flush, so that a Get searches each flushed
	// table's sub-skiplist (PCSM[+LIU]).
	LazyIndex          bool // false = update the sub-skiplist on every write (PCSM)
	SkiplistCompaction bool

	FSBytes uint64 // PMem file-layer capacity for SSTables (256 MiB)
	LSM     lsm.Options

	// Trace, when non-nil, receives lifecycle events (flush start/end,
	// sub-MemTable seals, spills, compactions, recovery, block-cache eviction
	// pressure). nil disables tracing; every emit site is nil-safe.
	Trace *obs.Trace

	// Overload protection. WriteStallDeadline is the deadline Put, Delete and
	// DeleteRange hand to Write: how long a write may wait (virtual ns) for
	// admission or a free sub-MemTable slot (which a full ImmZone delays: its
	// flush spills the zone first) before failing with ErrStalled; 0 waits
	// forever. A non-zero value also arms admission shaping for Write calls
	// that pass no deadline. Flow control's bounds derive from the budgets
	// above (flowTable).
	WriteStallDeadline int64

	// CompactionWorkers is how many compaction servers a round runs side by
	// side in virtual time (1): up to that many disjoint jobs, picked by
	// priority, each on a compaction thread of its own (attributed to
	// PhaseCompact). LSM compaction is never charged to the spill.
	CompactionWorkers int

	// Shards hash-partitions the keyspace across that many engines behind the
	// Sharded router (shard.go). PoolBytes, ImmZoneBytes and FSBytes are then
	// TOTALS split across the shards, so a sharded store consumes the same
	// pinned-cache and PMem budget as a single engine. 0 or 1 opens one Engine.
	Shards int
}

// manifestBytes is the manifest log capacity: 4 MiB, split across the shards
// of a router like the budgets in Options, with a 1 MiB floor.
func manifestBytes(shards int) uint64 {
	return max(4<<20/uint64(max(shards, 1)), 1<<20)
}

// shardEnv is what an engine running as one shard of a Sharded router shares
// with its siblings; only the router fills it. The zero value is a standalone
// engine: the legacy "cachekv" region names (and therefore the legacy
// on-media layout), a private sequence counter, a pool partition the engine
// reserves and releases itself, no batch log.
type shardEnv struct {
	index  int    // carried on trace events
	prefix string // region-name prefix, so several engines coexist on one machine
	// seq orders versions across the whole keyspace of a router.
	seq *atomic.Uint64
	// part is the router's pinned cache partition: the LLC is way-granular, so
	// N shards share one reservation instead of burning a way each.
	part *cache.PartitionID
	// wal reads the occupancy of the router's batch log: flow control's
	// fourth signal, which a standalone engine does not have.
	wal func() uint64
}

// regionName returns the engine's name for one of its PMem regions.
func (env shardEnv) regionName(suffix string) string {
	p := env.prefix
	if p == "" {
		p = "cachekv"
	}
	return p + "." + suffix
}

// DefaultOptions returns the paper's evaluation configuration, with the four
// flush threads its flush-thread sweep (Exp#5, Fig 14) finds the knee at: one
// to four nearly doubles write throughput, six adds under 2 %.
func DefaultOptions() Options {
	return Options{
		PoolBytes:          12 << 20,
		SubMemTableBytes:   2 << 20,
		FlushThreads:       4,
		SyncThreshold:      64,
		ImmZoneBytes:       32 << 20,
		LazyIndex:          true,
		SkiplistCompaction: true,
		FSBytes:            256 << 20,
		CompactionWorkers:  1,
	}
}

func (o Options) withDefaults() Options {
	d := DefaultOptions()
	if o.PoolBytes == 0 {
		o.PoolBytes = d.PoolBytes
	}
	if o.SubMemTableBytes == 0 {
		o.SubMemTableBytes = d.SubMemTableBytes
	}
	if o.FlushThreads == 0 {
		o.FlushThreads = d.FlushThreads
	}
	if o.SyncThreshold == 0 {
		o.SyncThreshold = d.SyncThreshold
	}
	if o.ImmZoneBytes == 0 {
		o.ImmZoneBytes = d.ImmZoneBytes
	}
	if o.FSBytes == 0 {
		o.FSBytes = d.FSBytes
	}
	if o.CompactionWorkers <= 0 { // compaction always has a worker
		o.CompactionWorkers = d.CompactionWorkers
	}
	return o
}

// Stats exposes CacheKV's internal counters.
type Stats struct {
	Puts       atomic.Int64
	Gets       atomic.Int64
	Deletes    atomic.Int64
	Flushes    atomic.Int64 // copy-based flushes completed
	Spills     atomic.Int64 // L0 spills
	ReadSyncs  atomic.Int64 // trigger-1 lazy syncs performed by readers
	GetRetries atomic.Int64 // Get passes started over at a new snapshot

	// The active-key table's probes (one per Get while the memory component
	// holds a slot or a table), how many found the key in none (each skips
	// every slot's trigger-1 lazy sync and sub-skiplist search), and how many
	// the table could not answer, so that the Get synced and searched every
	// active slot and flushed table.
	// The registry publishes the first two under the filter names the
	// per-slot filters the table replaced had.
	FilterProbes    atomic.Int64
	FilterNegatives atomic.Int64
	ProbeFallbacks  atomic.Int64

	RangeDeletes atomic.Int64 // DeleteRange calls (range tombstones committed)
	Ingests      atomic.Int64 // Ingest batches installed
}

// Engine is the CacheKV store.
type Engine struct {
	m    *hw.Machine
	opts Options
	env  shardEnv

	poolPart cache.PartitionID
	pool     *pool
	// active holds the newest version of each key in each slot incarnation;
	// Close swaps in an empty table, so that a closed engine keeps none of it.
	active   atomic.Pointer[activeTable]
	immArena *arena.PArena
	mem      *memState
	fs       *pmemfs.FS
	tree     *lsm.Tree

	// seq is the global version counter. Standalone engines own a private
	// counter; shards of one Sharded store share a single counter (shardEnv.seq)
	// so versions order across the whole keyspace.
	seq           *atomic.Uint64
	maxSpilledSeq atomic.Uint64

	// rangeTombs mirrors every range tombstone that may still be resident in
	// the memory component, so Get applies coverage without walking slots.
	// Entries are added at commit time and pruned on spill, but only once the
	// tree's own metadata carries them (see pruneRangeTombs).
	rangeTombs rangeTombList

	// flushes is the engine's one background worker, which copies the sealed
	// slots (startBackground).
	flushes     *bgpool.Pool[*slot]
	spillServer *sim.ServerPool // the spill thread's virtual server (spillFrom)
	flushBuf    []byte          // the table being copied (the flush worker's one buffer)
	// compactMu runs one caller's compaction rounds at a time (compact), on
	// the compaction threads, booked on compactServer.
	compactMu      sync.Mutex
	compactThreads []*hw.Thread
	compactServer  *sim.ServerPool
	pendingFlushes atomic.Int64
	// indexTh runs the syncs of triggers 2 and 3 one at a time (indexSync);
	// indexServer is the index thread's virtual server, which books them.
	indexMu     sync.Mutex
	indexTh     *hw.Thread
	indexServer *sim.ServerPool
	// pendingFlushBytes tracks sealed-but-unflushed slot payload bytes; with
	// ImmZone occupancy it forms the backlog signal (see backlog).
	pendingFlushBytes atomic.Int64
	flow              *flowControl

	// spillMu orders the ImmZone's two writers. A flush holds it shared from
	// its allocation through registering its table, a spill exclusively from
	// reading the registry through resetting the zone: no table registers
	// while a spill runs, so a spill writes out every registered table.
	spillMu sync.RWMutex
	stats   Stats
	failed  atomic.Pointer[error]
	closed  atomic.Bool

	trace        *obs.Trace
	lastBCEvicts atomic.Int64 // block-cache evictions at last pressure event
}

var errEngineCrashed = fmt.Errorf("cachekv: engine crash-stopped: %w", kvstore.ErrClosed)

// Open creates (or, after a crash, recovers) a CacheKV store on machine m:
// one Engine, or with Options.Shards >= 2 the Sharded router over that many.
// Region names are fixed, so reopening the same machine finds its prior
// state. On error the returned Store is nil (untyped), whichever shape failed.
func Open(m *hw.Machine, opts Options, th *hw.Thread) (Store, error) {
	if opts.Shards > 1 {
		sh, err := newSharded(m, opts, th)
		if err != nil {
			return nil, err
		}
		return sh, nil
	}
	e, err := newEngine(m, opts, shardEnv{}, th)
	if err != nil {
		return nil, err
	}
	return e, nil
}

// newEngine opens one engine: standalone (the zero env) or as a router's shard.
func newEngine(m *hw.Machine, opts Options, env shardEnv, th *hw.Thread) (_ *Engine, err error) {
	opts = opts.withDefaults()
	e := &Engine{
		m:     m,
		opts:  opts,
		env:   env,
		trace: opts.Trace,
		mem:   new(memState),
		seq:   env.seq,
	}
	e.active.Store(newActiveTable(activeEntries(opts)))
	if e.seq == nil {
		e.seq = new(atomic.Uint64)
	}

	if env.part != nil {
		e.poolPart = *env.part
	} else {
		e.poolPart, err = m.Cache.Reserve(int(opts.PoolBytes))
		if err != nil {
			return nil, fmt.Errorf("cachekv: pinning pool: %w", err)
		}
		// Nothing below starts a thread before it can no longer fail, so a
		// failed open owes the machine only the partition it pinned.
		defer func() {
			if err != nil {
				m.Cache.Release(e.poolPart)
			}
		}()
	}

	poolRegion, recovered := m.FindOrAlloc(env.regionName("pool"), opts.PoolBytes, 4096)
	immRegion, _ := m.FindOrAlloc(env.regionName("imm"), opts.ImmZoneBytes, 4096)
	fsRegion, _ := m.FindOrAlloc(env.regionName("fs"), opts.FSBytes, 4096)
	manifestRegion, _ := m.FindOrAlloc(env.regionName("manifest"), manifestBytes(opts.Shards), 4096)

	e.immArena = arena.NewPArena(immRegion)
	e.fs, err = pmemfs.Mount(m, fsRegion, th)
	if err != nil {
		return nil, err
	}
	e.tree, err = lsm.Open(m, e.fs, manifestRegion, opts.LSM, th)
	if err != nil {
		return nil, err
	}
	// Bump rather than store: a shared counter may already sit past this
	// shard's tree (another shard recovered first).
	raiseTo(e.seq, e.tree.LastSeq())
	e.maxSpilledSeq.Store(e.tree.LastSeq())

	e.flow = newFlowControl(e.flowTable(), env.index, opts)

	var sealed []*slot
	if recovered {
		e.trace.Emit(th.Clock.Now(), "recovery_start", "engine", e.Name(), "shard", env.index)
		var workers int
		th.InPhase(hw.PhaseRecovery, func() {
			sealed, workers, err = e.recover(poolRegion, th)
		})
		if err != nil {
			return nil, err
		}
		e.mem.mu.RLock()
		nImms := len(e.mem.imms)
		e.mem.mu.RUnlock()
		e.trace.Emit(th.Clock.Now(), "recovery_end", "shard", env.index,
			"imm_tables", nImms, "slots_sealed", len(sealed), "workers", workers, "last_seq", e.seq.Load())
	} else {
		e.pool, err = newPool(m, poolRegion, e.poolPart, opts.SubMemTableBytes, m.Cores(), th)
		if err != nil {
			return nil, err
		}
	}
	e.pool.sealFn = e.queueSealed
	e.pool.flushServers = opts.FlushThreads

	e.startBackground()
	// A reopened tree may hold debt already due (crash mid-burst): compact
	// it before the flush worker starts on the recovered slots, so that the
	// host order of the two stays fixed.
	e.compact(th.Clock.Now())
	// Recovery sealed the pool's live sub-MemTables: the flush worker copies
	// them into the ImmZone as it copies any full one.
	for _, s := range sealed {
		e.queueSealed(th.Clock.Now(), s)
	}
	// A recovered engine may reopen already under pressure (crash mid-stall).
	e.flow.recompute(th.Clock.Now(), "open")
	return e, nil
}

// fail records the first background error; subsequent operations return it
// and threads blocked on background progress are woken to observe it.
func (e *Engine) fail(err error) {
	if err == nil {
		return
	}
	e.failed.CompareAndSwap(nil, &err)
	if e.pool != nil {
		e.pool.aborted.Store(true)
	}
	e.flow.abort()
	e.flushes.Abort()
	if e.pool != nil {
		e.pool.mu.Lock()
		e.pool.cond.Broadcast()
		e.pool.mu.Unlock()
	}
}

func (e *Engine) err() error {
	if p := e.failed.Load(); p != nil {
		return *p
	}
	if e.closed.Load() {
		return kvstore.ErrClosed
	}
	return nil
}

// bgErr is the failure condition background threads respect: a recorded
// error or crash-stop, but NOT a graceful Close — shutdown still drains the
// flush and spill pipelines.
func (e *Engine) bgErr() error {
	if p := e.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// Name implements kvstore.DB.
func (e *Engine) Name() string {
	switch {
	case !e.opts.LazyIndex:
		return "PCSM"
	case !e.opts.SkiplistCompaction:
		return "PCSM+LIU"
	default:
		return "CacheKV"
	}
}

// engineMetric is one metric every engine publishes: a counter (count) or a
// gauge (level). Engine.RegisterObs publishes the table for its one engine,
// Sharded.RegisterObs for all shards summed; worst marks the gauges where the
// deployment's value is the most severe shard's, not the sum.
type engineMetric struct {
	name  string
	count func(e *Engine) int64
	level func(e *Engine) float64
	worst bool
}

// engineMetrics is the table, in exposition order, for a tree of the given
// number of levels.
func engineMetrics(levels int) []engineMetric {
	var ms []engineMetric
	counter := func(name string, f func(e *Engine) int64) {
		ms = append(ms, engineMetric{name: name, count: f})
	}
	gauge := func(name string, worst bool, f func(e *Engine) float64) {
		ms = append(ms, engineMetric{name: name, level: f, worst: worst})
	}
	sum := func(vs []int64) (t int64) {
		for _, v := range vs {
			t += v
		}
		return t
	}
	counter("engine_puts", func(e *Engine) int64 { return e.stats.Puts.Load() })
	counter("engine_gets", func(e *Engine) int64 { return e.stats.Gets.Load() })
	counter("engine_deletes", func(e *Engine) int64 { return e.stats.Deletes.Load() })
	counter("engine_flushes", func(e *Engine) int64 { return e.stats.Flushes.Load() })
	counter("engine_spills", func(e *Engine) int64 { return e.stats.Spills.Load() })
	counter("engine_read_syncs", func(e *Engine) int64 { return e.stats.ReadSyncs.Load() })
	counter("engine_get_retries", func(e *Engine) int64 { return e.stats.GetRetries.Load() })
	counter("engine_probe_fallbacks", func(e *Engine) int64 { return e.stats.ProbeFallbacks.Load() })
	counter("engine_pool_slots", func(e *Engine) int64 { return int64(e.pool.numSlots()) })
	counter("pool_splits", func(e *Engine) int64 { return e.pool.splits.Load() })
	counter("pool_merges", func(e *Engine) int64 { return e.pool.merges.Load() })
	counter("engine_range_deletes", func(e *Engine) int64 { return e.stats.RangeDeletes.Load() })
	counter("engine_ingests", func(e *Engine) int64 { return e.stats.Ingests.Load() })
	counter("compact_bytes_in", func(e *Engine) int64 {
		in, _, _ := e.tree.CompactionLevelStats()
		return sum(in)
	})
	counter("compact_bytes_out", func(e *Engine) int64 {
		_, out, _ := e.tree.CompactionLevelStats()
		return sum(out)
	})
	counter("compact_moved_files", func(e *Engine) int64 { return e.tree.GetStats().TablesMoved })
	counter("compact_moved_bytes", func(e *Engine) int64 {
		_, _, moved := e.tree.CompactionLevelStats()
		return sum(moved)
	})
	counter("compact_jobs", func(e *Engine) int64 {
		jobs, _ := e.compactServer.Stats()
		return jobs
	})
	gauge("compact_running", false, func(e *Engine) float64 { return float64(e.tree.RoundJobs()) })
	gauge("compact_queued", false, func(e *Engine) float64 {
		return float64(max(e.tree.DueLevels()-e.tree.RoundJobs(), 0))
	})
	counter("compact_busy_ns", func(e *Engine) int64 {
		_, busy := e.compactServer.Stats()
		return busy
	})
	gauge("compact_debt_bytes", false, func(e *Engine) float64 { return float64(e.tree.CompactionDebt()) })
	// The other virtual servers, read the same way: the jobs each booked and
	// the virtual time it kept them busy. The index pair counts the lazy
	// syncs of triggers 2 and 3.
	for _, k := range []struct {
		name  string
		stats func(e *Engine) (jobs, busyNs int64)
	}{
		{"flush", func(e *Engine) (int64, int64) { return e.flushes.Server.Stats() }},
		{"spill", func(e *Engine) (int64, int64) { return e.spillServer.Stats() }},
		{"index", func(e *Engine) (int64, int64) { return e.indexServer.Stats() }},
	} {
		counter(k.name+"_jobs", func(e *Engine) int64 {
			jobs, _ := k.stats(e)
			return jobs
		})
		counter(k.name+"_busy_ns", func(e *Engine) int64 {
			_, busy := k.stats(e)
			return busy
		})
	}
	for lvl := 0; lvl < levels; lvl++ {
		gauge(fmt.Sprintf("lsm_l%d_files", lvl), false, func(e *Engine) float64 { return float64(e.tree.NumFiles(lvl)) })
		gauge(fmt.Sprintf("lsm_l%d_bytes", lvl), false, func(e *Engine) float64 { return float64(e.tree.LevelBytes(lvl)) })
	}
	gauge("flow_state", true, func(e *Engine) float64 { return float64(e.flow.current()) })
	counter("flow_slowdown_entries", func(e *Engine) int64 { return e.flow.slowdownEntries.Load() })
	counter("flow_stop_entries", func(e *Engine) int64 { return e.flow.stopEntries.Load() })
	counter("flow_writes_delayed", func(e *Engine) int64 { return e.flow.delayedWrites.Load() })
	counter("flow_delay_ns", func(e *Engine) int64 { return e.flow.delayedNs.Load() })
	counter("flow_writes_rejected", func(e *Engine) int64 { return e.flow.rejectedWrites.Load() })
	counter("flow_stop_waits", func(e *Engine) int64 { return e.flow.stopWaits.Load() })
	counter("flow_stop_wait_ns", func(e *Engine) int64 { return e.flow.stopWaitNs.Load() })
	counter("flow_dwell_ok_ns", func(e *Engine) int64 { return e.flow.dwellNs[FlowOK].Load() })
	counter("flow_dwell_slowdown_ns", func(e *Engine) int64 { return e.flow.dwellNs[FlowSlowdown].Load() })
	counter("flow_dwell_stop_ns", func(e *Engine) int64 { return e.flow.dwellNs[FlowStop].Load() })
	gauge("flow_dwell_slowdown_mean_ns", true, func(e *Engine) float64 { return e.flow.dwellMean(FlowSlowdown) })
	gauge("flow_dwell_stop_mean_ns", true, func(e *Engine) float64 { return e.flow.dwellMean(FlowStop) })
	gauge("flow_compaction_debt_bytes", false, func(e *Engine) float64 { return float64(e.tree.CompactionDebt()) })
	gauge("flow_backlog_bytes", false, func(e *Engine) float64 { return float64(e.backlog()) })
	return ms
}

// registerMetrics publishes the counters of engines (one engine, or a
// router's shards) on r, summed: their block caches' and active-key tables'
// under the canonical names, the two ratios computed from the sums,
// then engineMetrics.
func registerMetrics(r *obs.Registry, engines []*Engine) {
	total := func(f func(e *Engine) int64) func() int64 {
		return func() (t int64) {
			for _, e := range engines {
				t += f(e)
			}
			return t
		}
	}
	hits := total(func(e *Engine) int64 { return e.tree.CacheStats().Hits })
	misses := total(func(e *Engine) int64 { return e.tree.CacheStats().Misses })
	probes := total(func(e *Engine) int64 { return e.stats.FilterProbes.Load() })
	negatives := total(func(e *Engine) int64 { return e.stats.FilterNegatives.Load() })
	r.Counter(obs.MBlockCacheHits, hits)
	r.Counter(obs.MBlockCacheMisses, misses)
	r.Counter(obs.MBlockCacheProbes, func() int64 { return hits() + misses() })
	r.Gauge(obs.MBlockCacheRatio, func() float64 { h := hits(); return obs.SafeRatio(h, h+misses()) })
	r.Counter(obs.MSSTPointDirect, total(func(e *Engine) int64 { return e.tree.CacheStats().Direct }))
	r.Counter(obs.MBlockCacheAdmitted, total(func(e *Engine) int64 { return e.tree.CacheStats().Admitted }))
	r.Counter(obs.MFilterProbes, probes)
	r.Counter(obs.MFilterNegatives, negatives)
	r.Gauge(obs.MFilterNegRatio, func() float64 { return obs.SafeRatio(negatives(), probes()) })
	for _, m := range engineMetrics(engines[0].tree.NumLevels()) {
		if m.count != nil {
			r.Counter(m.name, total(m.count))
			continue
		}
		r.Gauge(m.name, func() float64 {
			var t float64
			for _, e := range engines {
				if v := m.level(e); !m.worst {
					t += v
				} else if v > t {
					t = v
				}
			}
			return t
		})
	}
}

// RegisterObs publishes the engine's counters on r.
func (e *Engine) RegisterObs(r *obs.Registry) { registerMetrics(r, []*Engine{e}) }

// FlowState reports the current write-admission state.
func (e *Engine) FlowState() FlowState { return e.flow.current() }

// backlog is flow control's backlog reading: ImmZone occupancy plus
// sealed-but-unflushed slot bytes (the memory component's flush debt). It may
// legitimately exceed the zone size while seals queue.
func (e *Engine) backlog() uint64 {
	return e.immArena.Used() + uint64(max(e.pendingFlushBytes.Load(), 0))
}

// DebugForceFlowState pins the flow-control state machine to state s at
// virtual time at, suppressing signal-driven transitions for good.
// Deterministic crash harnesses script stall phases with it; production code
// never calls it.
func (e *Engine) DebugForceFlowState(at int64, s FlowState) { e.flow.force(at, s) }

// queueSealed hands a sealed slot to the copy-based flush: the one place a
// seal enters the backlog accounting, the lifecycle trace (exactly one
// memtable_seal per queued slot, answered by one flush_end) and flow
// control's view of the backlog. Trigger 3 syncs the full table from the seal
// first, so the flush moves a complete sub-skiplist to the ImmZone registry.
// It never blocks — pool.acquire force-rotates through it with pool.mu held.
func (e *Engine) queueSealed(at int64, s *slot) {
	cnt, _, tail := unpackHdr(s.hdr.Load())
	e.trace.Emit(at, "memtable_seal", "shard", e.env.index,
		"slot", s.idx, "entries", cnt, "bytes", tail)
	s.indexDoneV = e.indexSync(at, s)
	e.addPending(1, tail)
	if !e.flushes.Submit(at, s) {
		e.addPending(-1, tail) // overflow: the pool failed the engine
		return
	}
	e.flow.recompute(at, "memtable_seal")
}

// Get implements kvstore.DB. The freshest version may live in any active
// sub-MemTable, any flushed sub-ImmMemTable, or the LSM tree; candidates are
// compared by sequence number. The tree can take in a version newer than the
// Get's snapshot while it reads (a spill or an ingest, then a compaction), and
// so drop the version that snapshot reads, leaving the key absent or at an
// older version. The Get then starts over at a new snapshot, as a Scan's pass
// does.
func (e *Engine) Get(th *hw.Thread, key []byte) ([]byte, error) {
	if err := e.err(); err != nil {
		return nil, err
	}
	e.stats.Gets.Add(1)
	for pass := 1; ; pass++ {
		v, stale, err := e.getAt(th, key, e.seq.Load())
		if !stale || pass >= maxReadPasses {
			return v, err
		}
		e.stats.GetRetries.Add(1)
	}
}

// getAt is one pass of Get at snapshot; stale reports that the tree held a
// version newer than snapshot.
func (e *Engine) getAt(th *hw.Thread, key []byte, snapshot uint64) (_ []byte, stale bool, _ error) {
	var res kvstore.UserGetResult

	// 1. The memory component: one probe of the active-key table, unless it
	// holds no slot and no table. Only a probe it cannot answer syncs and
	// searches every active slot, then every flushed table; with
	// SkiplistCompaction off the table covers the active slots only, and the
	// flushed tables are always searched. The slots are read before the
	// tables: a flush registers its table before it frees the slot, so a
	// version leaving one is found in the other.
	var slots [16]*slot
	active := e.pool.snapshotActive(slots[:0])
	covered := e.opts.SkiplistCompaction
	searchTables := !covered
	if (len(active) > 0 || covered && e.mem.registered()) && !e.probeActive(th, &res, key, snapshot) {
		for _, s := range active {
			if e.opts.LazyIndex && needsSync(s) {
				th.InPhase(hw.PhaseIndex, func() {
					if e.syncSlot(th, s) > 0 {
						e.stats.ReadSyncs.Add(1)
					}
				})
			}
			s.syncMu.Lock()
			list := s.list
			s.syncMu.Unlock()
			if list == nil {
				continue
			}
			// A KindRangeDel hit is structural (its value is the span's end key,
			// not a user value); coverage comes from rangeTombs below.
			if v, fseq, kind, ok := e.searchList(th, list, s.dataAddr(), s.dataCap(), e.poolPart, key, snapshot); ok && kind != util.KindRangeDel {
				considerView(&res, v, fseq, kind)
			}
		}
		searchTables = true
	}
	if searchTables {
		e.mem.mu.RLock()
		imms := e.mem.imms
		e.mem.mu.RUnlock()
		for _, t := range imms {
			if v, fseq, kind, ok := e.searchList(th, t.list, t.base, t.dataLen, cache.DefaultPartition, key, snapshot); ok && kind != util.KindRangeDel {
				considerView(&res, v, fseq, kind)
			}
		}
	}

	// 2. The LSM tree — skippable when the memory component already holds a
	// version newer than anything ever spilled.
	if !res.Found || res.Seq <= e.maxSpilledSeq.Load() {
		var v []byte
		var fseq uint64
		var found, deleted bool
		var terr error
		th.InPhase(hw.PhaseSST, func() {
			v, fseq, found, deleted, terr = e.tree.Get(th, key, snapshot)
		})
		if terr != nil {
			return nil, stale, terr
		}
		if found {
			res.Consider(v, fseq, util.KindValue)
		} else if deleted {
			res.Consider(nil, fseq, util.KindDelete)
		}
		stale = stale || e.tree.LastSeq() > snapshot
	}

	// Memory-resident range tombstones: the tree applies its own coverage,
	// but a tombstone not yet spilled can hide older versions from any layer.
	// Sound without consulting the tree here: a candidate the tree check was
	// skipped for has res.Seq > maxSpilledSeq, and every tree tombstone's
	// sequence is at or below maxSpilledSeq, so it could not cover anyway.
	if cover := e.rangeTombs.coverSeq(key, snapshot); cover > 0 && (!res.Found || cover > res.Seq) {
		return nil, stale, kvstore.ErrNotFound
	}
	if !res.Found || res.Kind == util.KindDelete {
		return nil, stale, kvstore.ErrNotFound
	}
	return res.Value, stale, nil
}

// considerView is res.Consider for a value that is a view into the thread's
// scratch: the bytes are copied, and only when the candidate wins. That copy is
// the value Get returns.
func considerView(res *kvstore.UserGetResult, v []byte, seq uint64, kind util.ValueKind) {
	if !res.Found || seq > res.Seq {
		res.Consider(append([]byte(nil), v...), seq, kind)
	}
}

// Scan implements kvstore.DB: a merged ordered walk over every source.
func (e *Engine) Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	if err := e.err(); err != nil {
		return 0, err
	}
	return scanShards(th, []*Engine{e}, start, limit, fn)
}

// sstIter bills everything a scan's tree source does — table opens, block
// loads, the cache lines an in-place walk faults — to hw.PhaseSST, the phase
// Get's tree lookup runs in.
type sstIter struct {
	lsm.Iterator
	th *hw.Thread
}

func (s sstIter) SeekToFirst() { s.th.InPhase(hw.PhaseSST, s.Iterator.SeekToFirst) }
func (s sstIter) Next()        { s.th.InPhase(hw.PhaseSST, s.Iterator.Next) }
func (s sstIter) Seek(ik util.InternalKey) {
	s.th.InPhase(hw.PhaseSST, func() { s.Iterator.Seek(ik) })
}
func (s sstIter) Value() (v []byte) {
	s.th.InPhase(hw.PhaseSST, func() { v = s.Iterator.Value() })
	return v
}

// scanCursor is everything one Scan walks with, from scanPool: a warm Scan
// allocates nothing, and a Scan inside a Scan's callback gets its own. Each
// tableIter and sstIter is an allocation it keeps, so the merge's pointers
// to them stay put however far the slices grow.
type scanCursor struct {
	kvstore.ScanState
	srcs   []lsm.Iterator // this pass's sources, in merge order
	tables []*tableIter
	trees  []*lsm.TreeSources // one per shard
	ssts   []*sstIter
	tombs  []lsm.RangeDel
	resume []byte
}

var scanPool = sync.Pool{New: func() any { return new(scanCursor) }}

// maxReadPasses bounds a Get's and a Scan's passes: a table that fails the
// fetch check pass after pass is damaged, not recycled, and the Scan reports
// it; a Get that a busy writer outruns that often answers at its last pass.
const maxReadPasses = 16

// scanShards runs one Scan over the sources of shards, in shard order, at the
// sequence before they are collected. A tree that took in newer entries
// meanwhile (a spill or an ingest) may have compacted away a version that
// snapshot reads: the pass starts over at a new one. A table recycled under
// the walk (errStaleTable) ends a pass but not the Scan: its entries have
// reached the ImmZone or the tree, where the next pass, collected afresh,
// finds them as it goes on just past the last key decided.
func scanShards(th *hw.Thread, shards []*Engine, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	c := scanPool.Get().(*scanCursor)
	defer scanPool.Put(c)
	snapshot, total := shards[0].seq.Load(), 0
	for pass := 1; ; pass++ {
		c.srcs, c.tables, c.trees, c.ssts, c.tombs = c.srcs[:0], c.tables[:0], c.trees[:0], c.ssts[:0], c.tombs[:0]
		newer := false
		for _, e := range shards {
			newer = e.appendSources(th, c, snapshot) || newer
		}
		if newer && pass < maxReadPasses { // the sources hold nothing before their Seek
			snapshot = shards[0].seq.Load()
			continue
		}
		n, err := kvstore.ScanSources(&c.ScanState, c.srcs, start, snapshot, limit-total, c.tombs, fn)
		total += n
		if !errors.Is(err, errStaleTable) || pass >= maxReadPasses {
			return total, err
		}
		if n > 0 {
			c.resume = append(append(c.resume[:0], c.Last()...), 0)
			start = c.resume
		}
	}
}

// appendSources adds e's sources to c — one per active slot, billing the
// index sync a scan performs, one per ImmZone table, newest first, then the
// tree's, billed to hw.PhaseSST — and the range tombstones visible at
// snapshot. It reports whether the tree holds entries newer than snapshot.
func (e *Engine) appendSources(th *hw.Thread, c *scanCursor, snapshot uint64) bool {
	var slots [16]*slot
	for _, s := range e.pool.snapshotActive(slots[:0]) {
		// Scans need complete indexes; bill the sync like Get's trigger-1.
		th.InPhase(hw.PhaseIndex, func() {
			if e.syncSlot(th, s) > 0 {
				e.stats.ReadSyncs.Add(1)
			}
		})
		s.syncMu.Lock()
		list := s.list
		s.syncMu.Unlock()
		if list != nil {
			c.addTable(e, th, list, s.dataAddr(), s.dataCap(), e.poolPart)
		}
	}
	e.mem.mu.RLock()
	for i := len(e.mem.imms) - 1; i >= 0; i-- {
		t := e.mem.imms[i]
		c.addTable(e, th, t.list, t.base, t.dataLen, cache.DefaultPartition)
	}
	e.mem.mu.RUnlock()
	var ts *lsm.TreeSources
	c.trees, ts = extend(c.trees)
	n := len(c.srcs)
	for c.srcs = e.tree.AppendSources(th, c.srcs, ts); n < len(c.srcs); n++ {
		var w *sstIter
		c.ssts, w = extend(c.ssts)
		*w, c.srcs[n] = sstIter{c.srcs[n], th}, w
	}
	c.tombs = e.appendRangeTombs(c.tombs, snapshot)
	return e.tree.LastSeq() > snapshot
}

// addTable adds a source over one table, keeping its tableIter's buffer.
func (c *scanCursor) addTable(e *Engine, th *hw.Thread, list *skiplist.List, base, limit uint64, part cache.PartitionID) {
	var t *tableIter
	c.tables, t = extend(c.tables)
	*t = tableIter{e: e, th: th, base: base, limit: limit, part: part, buf: t.buf}
	list.ResetIterator(&t.it)
	c.srcs = append(c.srcs, t)
}

// extend lengthens s by one and returns its new last element: the one an
// earlier use left past len(s), or a new one.
func extend[T any](s []*T) ([]*T, *T) {
	s = slices.Grow(s, 1)[:len(s)+1]
	if s[len(s)-1] == nil {
		s[len(s)-1] = new(T)
	}
	return s, s[len(s)-1]
}

// FlushAll implements kvstore.DB: seal everything, drain the flush pipeline,
// spill the ImmZone, and wait for the tree to settle.
func (e *Engine) FlushAll(th *hw.Thread) error {
	if err := e.err(); err != nil {
		return err
	}
	for core := range e.pool.coreSlot {
		if s := e.pool.sealForCore(th, core); s != nil {
			if count, _, _ := unpackHdr(s.hdr.Load()); count == 0 {
				// Empty slot: free it directly rather than flushing nothing.
				e.freeSlot(th, s, th.Clock.Now())
				continue
			}
			e.queueSealed(th.Clock.Now(), s)
		}
	}
	// The last flush leaves the backlog before it spills: wait for it to end.
	if !e.flushes.Wait(func() bool { return e.pendingFlushes.Load() == 0 && e.flushes.Running() == 0 }) {
		return e.err()
	}
	e.spill(th)
	th.Clock.AdvanceTo(e.compact(th.Clock.Now()))
	// Advance the caller past all background virtual time: the last flush
	// ends when the busiest flush server frees.
	th.Clock.AdvanceTo(e.flushes.Server.LatestFree())
	return e.err()
}

// Close implements kvstore.DB. On a crashed machine it is the crash-stop: the
// engine fails with errEngineCrashed and drops its queued background work.
func (e *Engine) Close(th *hw.Thread) error {
	if e.closed.Swap(true) {
		return nil
	}
	if e.m.Crashed() {
		e.fail(errEngineCrashed)
	}
	// Drain the flush worker, then wait out a round another caller runs:
	// no round starts once closed is set, so compaction drops what is due
	// instead of draining it.
	e.flushes.Close()
	e.compactMu.Lock()
	e.compactMu.Unlock()
	e.dropMemory()
	// Graceful shutdown: write the pinned pool back to the PMem before
	// surrendering the partition, so a close is never lossier than a crash
	// (eADR would have drained these lines anyway). A crashed machine refuses
	// the write-back: the power is already off.
	if r, ok := e.m.LookupRegion(e.env.regionName("pool")); ok {
		e.m.Cache.FlushOpt(e.m.NewThread(0).Clock, r.Addr, int(r.Size))
	}
	// A shared partition belongs to the Sharded router that reserved it.
	if e.env.part == nil {
		e.m.Cache.Release(e.poolPart)
	}
	if p := e.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// dropMemory lets go of the memory component's DRAM state once the
// background work has drained: the active-key table, the slots'
// sub-skiplists, the registered tables and the flush buffer. A crashed engine
// is reopened from the PMem alone, and a closed one holds nothing the next
// engine on the machine needs. An operation still in flight sees an empty
// table and no lists, as a failed engine's may.
func (e *Engine) dropMemory() {
	e.active.Store(newActiveTable(0))
	for _, s := range e.pool.slotList() {
		s.syncMu.Lock()
		s.list = nil
		s.syncMu.Unlock()
	}
	e.mem.mu.Lock()
	e.mem.imms = nil
	e.mem.mu.Unlock()
	e.flushBuf = nil
}

// Store is what both engine shapes (*Engine and the *Sharded router) offer on
// top of kvstore.DB: the one mutation entry, bulk ingest, the write-admission
// state, and the registry every counter the public API reports is read from.
// Callers outside the package hold a Store instead of probing a kvstore.DB
// for individual methods.
type Store interface {
	kvstore.DB
	Write(th *hw.Thread, b *Batch, deadlineNs int64) error
	Ingest(th *hw.Thread, entries []lsm.IngestEntry) error
	FlowState() FlowState
	// RegisterObs publishes the store's counters on r: block cache and
	// active-key table under the canonical names (obs.MBlockCacheHits, ...),
	// then the engine's own.
	RegisterObs(r *obs.Registry)
}

var (
	_ Store = (*Engine)(nil)
	_ Store = (*Sharded)(nil)
)
