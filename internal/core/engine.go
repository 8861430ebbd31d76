package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"cachekv/internal/arena"
	"cachekv/internal/blockcache"
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
	SubMemTableBytes uint64 // initial sub-MemTable size (2 MiB)
	FlushThreads     int    // background copy-based flush threads (1)
	SyncThreshold    int    // writes per sub-MemTable before a lazy sync (64)
	ImmZoneBytes     uint64 // PMem staging zone for flushed tables (32 MiB)
	Elastic          bool   // enable miss-counter elasticity (on)

	// Ablation switches: the paper's PCSM / PCSM+LIU / CacheKV breakdown.
	LazyIndex          bool // false = update the sub-skiplist on every write (PCSM)
	SkiplistCompaction bool // false = never build the global skiplist (PCSM[+LIU])

	// FilterBitsPerKey sizes the DRAM-side negative filters kept per
	// sub-MemTable slot, per sub-ImmMemTable, and over the global skiplist
	// (10, LevelDB's bloom budget). Negative disables the filters.
	FilterBitsPerKey int

	FSBytes uint64 // PMem file-layer capacity for SSTables (256 MiB)
	LSM     lsm.Options

	// Trace, when non-nil, receives lifecycle events (flush start/end,
	// sub-MemTable seals, spills, compactions, recovery, block-cache eviction
	// pressure). nil disables tracing; every emit site is nil-safe.
	Trace *obs.Trace

	// Overload protection. WriteStallDeadline is the deadline Put, Delete and
	// DeleteRange hand to Write: how long a write may wait (virtual ns) for
	// admission, a free sub-MemTable slot, or — via backpressure — ImmZone
	// space before failing with ErrStalled; 0 waits forever. A non-zero value
	// also arms admission shaping for Write calls that pass no deadline.
	// DisableFlowControl turns the state machine off entirely (baseline
	// measurements); its bounds derive from the budgets above (flowTable).
	WriteStallDeadline int64
	DisableFlowControl bool

	// CompactionWorkers is the size of the background compaction scheduler's
	// worker pool (each worker on its own simulated thread, attributed to
	// PhaseCompact) picking jobs by priority and running disjoint-range
	// same-level jobs concurrently (1). LSM compaction never runs on the
	// spill path.
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
// reserves and releases itself, no two-phase log.
type shardEnv struct {
	index  int    // carried on trace events
	prefix string // region-name prefix, so several engines coexist on one machine
	// seq orders versions across the whole keyspace of a router.
	seq *atomic.Uint64
	// part is the router's pinned cache partition: the LLC is way-granular, so
	// N shards share one reservation instead of burning a way each.
	part *cache.PartitionID
	// wal reads the occupancy of the router's two-phase logs: flow control's
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

// region finds the named PMem region or, on a fresh machine, allocates it;
// found says which, i.e. whether there is prior state to recover.
func region(m *hw.Machine, name string, size, align uint64) (r hw.Region, found bool) {
	if r, found = m.LookupRegion(name); !found {
		r = m.Alloc(name, size, align)
	}
	return r, found
}

// DefaultOptions returns the paper's evaluation configuration.
func DefaultOptions() Options {
	return Options{
		PoolBytes:          12 << 20,
		SubMemTableBytes:   2 << 20,
		FlushThreads:       1,
		SyncThreshold:      64,
		ImmZoneBytes:       32 << 20,
		Elastic:            true,
		LazyIndex:          true,
		SkiplistCompaction: true,
		FilterBitsPerKey:   10,
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
	if o.FilterBitsPerKey == 0 {
		o.FilterBitsPerKey = d.FilterBitsPerKey
	}
	if o.FSBytes == 0 {
		o.FSBytes = d.FSBytes
	}
	if o.CompactionWorkers <= 0 { // the scheduler is always on
		o.CompactionWorkers = d.CompactionWorkers
	}
	return o
}

// Stats exposes CacheKV's internal counters.
type Stats struct {
	Puts        atomic.Int64
	Gets        atomic.Int64
	Deletes     atomic.Int64
	Flushes     atomic.Int64 // copy-based flushes completed
	Spills      atomic.Int64 // L0 spills
	Compactions atomic.Int64 // sub-skiplist compaction rounds
	ReadSyncs   atomic.Int64 // trigger-1 lazy syncs performed by readers

	// Memory-component negative-filter effectiveness: probes against slot,
	// imm-table, and global filters, and how many rejected (each rejection
	// skips a sub-skiplist search, and for active slots also the trigger-1
	// lazy sync).
	FilterProbes    atomic.Int64
	FilterNegatives atomic.Int64

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

	flushCh        chan *slot
	syncCh         chan syncReq
	compactCh      chan struct{}
	spillCh        chan int64
	flushServers   *sim.ServerPool
	spillServer    *sim.ServerPool
	indexServer    *sim.ServerPool
	pendingFlushes atomic.Int64
	// pendingFlushBytes tracks sealed-but-unflushed slot payload bytes; with
	// ImmZone occupancy it forms the backlog signal (see backlog).
	pendingFlushBytes atomic.Int64
	flow              *flowControl
	flushWG           sync.WaitGroup
	indexWG           sync.WaitGroup
	spillWG           sync.WaitGroup

	spillMu    sync.RWMutex
	spillBufs  [][]byte // a spill's table snapshots, reused by the next (spillMu held)
	spillState struct {
		mu    sync.Mutex
		cond  *sync.Cond
		doneV int64 // virtual completion time of the latest spill
	}
	stats  Stats
	failed atomic.Pointer[error]
	closed atomic.Bool

	trace        *obs.Trace
	lastBCEvicts atomic.Int64 // block-cache evictions at last pressure event
}

var errEngineCrashed = errors.New("cachekv: engine crash-stopped")

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
	filterBits := opts.FilterBitsPerKey
	if filterBits < 0 {
		filterBits = 0 // filters disabled
	}
	e := &Engine{
		m:         m,
		opts:      opts,
		env:       env,
		trace:     opts.Trace,
		mem:       newMemState(expectedSlotKeys(opts.ImmZoneBytes), filterBits),
		seq:       env.seq,
		flushCh:   make(chan *slot, 1024),
		syncCh:    make(chan syncReq, 4096),
		compactCh: make(chan struct{}, 64),
		spillCh:   make(chan int64, 1),
	}
	e.flushServers = sim.NewServerPool(opts.FlushThreads)
	e.spillServer = sim.NewServerPool(1)
	// The paper dedicates one background thread to the lazy index update and
	// sub-skiplist compaction; its work is billed here, overlapping flushes.
	e.indexServer = sim.NewServerPool(1)
	e.spillState.cond = sync.NewCond(&e.spillState.mu)
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

	poolRegion, recovered := region(m, env.regionName("pool"), opts.PoolBytes, 4096)
	immRegion, _ := region(m, env.regionName("imm"), opts.ImmZoneBytes, 4096)
	fsRegion, _ := region(m, env.regionName("fs"), opts.FSBytes, 4096)
	manifestRegion, _ := region(m, env.regionName("manifest"), manifestBytes(opts.Shards), 4096)

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
	e.bumpSeq(e.tree.LastSeq())
	e.maxSpilledSeq.Store(e.tree.LastSeq())

	e.flow = newFlowControl(e.flowTable(), env.index, opts)

	if recovered {
		e.trace.Emit(th.Clock.Now(), "recovery_start", "engine", e.Name(), "shard", env.index)
		th.InPhase(hw.PhaseRecovery, func() {
			err = e.recover(poolRegion, th)
		})
		if err != nil {
			return nil, err
		}
		e.mem.mu.RLock()
		nImms := len(e.mem.imms)
		e.mem.mu.RUnlock()
		e.trace.Emit(th.Clock.Now(), "recovery_end", "shard", env.index,
			"imm_tables", nImms, "filters_rebuilt", nImms, "last_seq", e.seq.Load())
	} else {
		e.pool, err = newPool(m, poolRegion, e.poolPart, opts.SubMemTableBytes, m.Cores(), opts.Elastic, th)
		if err != nil {
			return nil, err
		}
		e.pool.filterBits = filterBits
	}
	e.pool.sealFn = e.queueSealed

	e.tree.StartScheduler(lsm.SchedulerConfig{
		Workers:   opts.CompactionWorkers,
		OnError:   e.fail,
		OnJobDone: func(at int64) { e.flow.recompute(at, "lsm_compaction") },
		Err:       e.bgErr,
		Trace:     opts.Trace,
	})
	// A recovered tree may reopen with debt already due (crash mid-burst).
	e.tree.Kick(th.Clock.Now())

	for i := 0; i < opts.FlushThreads; i++ {
		e.flushWG.Add(1)
		go e.flusher()
	}
	e.spillWG.Add(1)
	go e.spillLoop()
	e.indexWG.Add(2)
	go e.indexLoop()
	go e.compactLoop()
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
	if e.tree != nil {
		e.tree.AbortScheduler()
	}
	if e.spillState.cond != nil {
		e.spillState.mu.Lock()
		e.spillState.cond.Broadcast()
		e.spillState.mu.Unlock()
	}
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

// GetStats returns the engine's counters.
func (e *Engine) GetStats() *Stats { return &e.stats }

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
	counter("engine_compactions", func(e *Engine) int64 { return e.stats.Compactions.Load() })
	counter("engine_read_syncs", func(e *Engine) int64 { return e.stats.ReadSyncs.Load() })
	counter("engine_pool_slots", func(e *Engine) int64 { return int64(e.pool.numSlots()) })
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
	counter("compact_jobs", func(e *Engine) int64 { return e.tree.SchedulerStats().JobsRun })
	gauge("compact_running", false, func(e *Engine) float64 { return float64(e.tree.SchedulerStats().Running) })
	gauge("compact_queued", false, func(e *Engine) float64 { return float64(e.tree.SchedulerStats().Queued) })
	counter("compact_busy_ns", func(e *Engine) int64 { return e.tree.SchedulerStats().BusyNs })
	gauge("compact_debt_bytes", false, func(e *Engine) float64 { return float64(e.tree.CompactionDebt()) })
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
	gauge("flow_dwell_slowdown_mean_ns", true, func(e *Engine) float64 { return e.flow.dwellHist[FlowSlowdown].Mean() })
	gauge("flow_dwell_stop_mean_ns", true, func(e *Engine) float64 { return e.flow.dwellHist[FlowStop].Mean() })
	gauge("flow_compaction_debt_bytes", false, func(e *Engine) float64 { return float64(e.tree.CompactionDebt()) })
	return ms
}

// registerEngineMetrics publishes engineMetrics on r, aggregated over engines.
func registerEngineMetrics(r *obs.Registry, engines []*Engine) {
	for _, m := range engineMetrics(engines[0].tree.NumLevels()) {
		if m.count != nil {
			r.Counter(m.name, func() int64 {
				var t int64
				for _, e := range engines {
					t += m.count(e)
				}
				return t
			})
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

// RegisterObs publishes the engine's internal counters on r (obs.RegisterKV
// discovers this via the ObsRegistrar interface).
func (e *Engine) RegisterObs(r *obs.Registry) { registerEngineMetrics(r, []*Engine{e}) }

// FlowState reports the current write-admission state.
func (e *Engine) FlowState() FlowState { return e.flow.current() }

// FlowStats reports the flow-control counter snapshot.
func (e *Engine) FlowStats() FlowStats { return e.flow.snapshot() }

// backlog is flow control's backlog reading: ImmZone occupancy plus
// sealed-but-unflushed slot bytes (the memory component's flush debt). It may
// legitimately exceed the zone size while seals queue.
func (e *Engine) backlog() uint64 {
	return e.immArena.Used() + uint64(max(e.pendingFlushBytes.Load(), 0))
}

// FlowSignals reports raw pressure readings: L0 file count and bytes, and the
// backlog flow control polls. Harnesses use it to assert the bounded memory
// footprint oracle.
func (e *Engine) FlowSignals() (l0Files int, l0Bytes int64, backlogBytes uint64) {
	files, bytes := e.tree.L0Pressure()
	return files, bytes, e.backlog()
}

// DebugForceFlowState pins the flow-control state machine to state s at
// virtual time at, suppressing signal-driven transitions until
// DebugUnforceFlowState. Deterministic crash harnesses script stall phases
// with it; production code never calls it.
func (e *Engine) DebugForceFlowState(at int64, s FlowState) { e.flow.force(at, s) }

// DebugUnforceFlowState releases a DebugForceFlowState pin.
func (e *Engine) DebugUnforceFlowState() { e.flow.forceOff() }

// FilterStats reports memory-component negative-filter probes and rejections.
func (e *Engine) FilterStats() (probes, negatives int64) {
	return e.stats.FilterProbes.Load(), e.stats.FilterNegatives.Load()
}

// BlockCacheStats reports the block cache's counters.
func (e *Engine) BlockCacheStats() blockcache.Stats { return e.tree.CacheStats() }

// PoolSlots reports the current number of usable sub-MemTables.
func (e *Engine) PoolSlots() int { return e.pool.numSlots() }

// queueSealed hands a sealed slot to the copy-based flush: the one place a
// seal enters the backlog accounting, the lifecycle trace (exactly one
// memtable_seal per queued slot, answered by one flush_end) and flow
// control's view of the backlog. It never blocks — pool.acquire force-rotates
// through it with pool.mu held.
func (e *Engine) queueSealed(at int64, s *slot) {
	cnt, _, tail := unpackHdr(s.hdr.Load())
	e.trace.Emit(at, "memtable_seal", "shard", e.env.index,
		"slot", s.idx, "entries", cnt, "bytes", tail)
	e.pendingFlushes.Add(1)
	e.pendingFlushBytes.Add(int64(tail))
	select {
	case e.flushCh <- s:
		e.flow.recompute(at, "memtable_seal")
	default:
		// The channel is sized far beyond the slot count; dropping here
		// would leak an immutable slot, so treat overflow as a bug.
		e.pendingFlushes.Add(-1)
		e.pendingFlushBytes.Add(-int64(tail))
		e.fail(fmt.Errorf("cachekv: flush queue overflow"))
	}
}

// Get implements kvstore.DB. The freshest version may live in any active
// sub-MemTable, any flushed sub-ImmMemTable (directly or via the global
// skiplist), or the LSM tree; candidates are compared by sequence number.
func (e *Engine) Get(th *hw.Thread, key []byte) ([]byte, error) {
	if err := e.err(); err != nil {
		return nil, err
	}
	e.stats.Gets.Add(1)
	snapshot := e.seq.Load()
	var res kvstore.UserGetResult

	// 1. Active sub-MemTables: probe the slot's negative filter first — a
	// rejection skips both the trigger-1 lazy sync and the sub-skiplist
	// search (sound: commitOps adds to the filter before the commit CAS, so
	// the filter always leads the lazy index).
	var slots [16]*slot
	for _, s := range e.pool.snapshotActive(slots[:0]) {
		if f := s.filter.Load(); f != nil {
			th.ChargeDRAM(1)
			e.stats.FilterProbes.Add(1)
			if !f.MayContain(key) {
				e.stats.FilterNegatives.Add(1)
				continue
			}
		}
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

	// 2. Flushed sub-ImmMemTables: the global skiplist covers compacted
	// tables; uncompacted ones are searched individually.
	e.mem.mu.RLock()
	global := e.mem.global
	globalFilter := e.mem.globalFilter // swapped together with global under mu
	var tables [16]*immTable
	uncompacted := tables[:0]
	for _, t := range e.mem.imms {
		if !t.compacted {
			uncompacted = append(uncompacted, t)
		}
	}
	e.mem.mu.RUnlock()
	if e.opts.SkiplistCompaction {
		searchGlobal := true
		if globalFilter != nil {
			th.ChargeDRAM(1)
			e.stats.FilterProbes.Add(1)
			// Sound: mergeInto adds to the filter before upserting into the
			// list, so any key present in global is present in its filter.
			if !globalFilter.MayContain(key) {
				e.stats.FilterNegatives.Add(1)
				searchGlobal = false
			}
		}
		if searchGlobal {
			gv, ok := global.Get(key, func(visits int) {
				th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 8)
			})
			if ok {
				gseq, kind, addr := decodeGlobalVal(gv)
				if gseq <= snapshot && kind != util.KindRangeDel {
					// The global list stores absolute ImmZone addresses; bound
					// the fetch by the zone's remaining extent.
					if zone := e.immArena.Region(); addr < zone.End() {
						// The zone may have been spilled and refilled under this
						// global-list snapshot; only trust the fetch if the entry
						// still carries the key and sequence the node recorded.
						if ent, okF := e.fetchEntry(th, &th.Scratch.Entry, addr, 0, zone.End()-addr, cache.DefaultPartition); okF &&
							string(ent.UKey) == string(key) && ent.Seq() == gseq {
							considerView(&res, ent.Value, gseq, kind)
						}
					}
				}
			}
		}
	}
	for _, t := range uncompacted {
		// The imm filter is the slot's filter handed over at flush: it covers
		// every committed key of exactly this table.
		if f := t.filter; f != nil {
			th.ChargeDRAM(1)
			e.stats.FilterProbes.Add(1)
			if !f.MayContain(key) {
				e.stats.FilterNegatives.Add(1)
				continue
			}
		}
		if v, fseq, kind, ok := e.searchList(th, t.list, t.base, t.dataLen, cache.DefaultPartition, key, snapshot); ok && kind != util.KindRangeDel {
			considerView(&res, v, fseq, kind)
		}
	}

	// 3. The LSM tree — skippable when the memory component already holds a
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
			return nil, terr
		}
		if found {
			res.Consider(v, fseq, util.KindValue)
		} else if deleted {
			res.Consider(nil, fseq, util.KindDelete)
		}
	}

	// Memory-resident range tombstones: the tree applies its own coverage,
	// but a tombstone not yet spilled can hide older versions from any layer.
	// Sound without consulting the tree here: a candidate the tree check was
	// skipped for has res.Seq > maxSpilledSeq, and every tree tombstone's
	// sequence is at or below maxSpilledSeq, so it could not cover anyway.
	if cover := e.rangeTombs.coverSeq(key, snapshot); cover > 0 && (!res.Found || cover > res.Seq) {
		return nil, kvstore.ErrNotFound
	}
	if !res.Found || res.Kind == util.KindDelete {
		return nil, kvstore.ErrNotFound
	}
	return res.Value, nil
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

// maxScanPasses bounds a Scan's passes: a table that fails the fetch check
// pass after pass is damaged, not recycled, and the Scan reports it.
const maxScanPasses = 16

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
		if newer && pass < maxScanPasses { // the sources hold nothing before their Seek
			snapshot = shards[0].seq.Load()
			continue
		}
		n, err := kvstore.ScanSources(&c.ScanState, c.srcs, start, snapshot, limit-total, c.tombs, fn)
		total += n
		if !errors.Is(err, errStaleTable) || pass >= maxScanPasses {
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
				e.pool.markFree(th, s, th.Clock.Now())
				continue
			}
			e.queueSealed(th.Clock.Now(), s)
		}
	}
	for e.pendingFlushes.Load() > 0 {
		if err := e.err(); err != nil {
			return err
		}
		runtime.Gosched()
	}
	e.spill(th)
	e.tree.Kick(th.Clock.Now())
	e.tree.WaitCompactIdle(th)
	// Advance the caller past all background virtual time.
	th.Clock.AdvanceTo(e.flushServers.EarliestFree())
	return e.err()
}

// Halt crash-stops the engine: all operations begin failing immediately and
// background threads abandon their queued work instead of completing it.
// Used by crash simulation, where a graceful Close would persist more state
// than a power failure leaves behind.
func (e *Engine) Halt() { e.fail(errEngineCrashed) }

// Close implements kvstore.DB.
func (e *Engine) Close(th *hw.Thread) error {
	if e.closed.Swap(true) {
		return nil
	}
	// Drain flushers first: an in-flight flush may still signal the spill or
	// index threads, so their channels close only after every flusher exits.
	close(e.flushCh)
	e.flushWG.Wait()
	close(e.spillCh)
	e.spillWG.Wait()
	e.tree.StopScheduler()
	close(e.syncCh)
	close(e.compactCh)
	e.indexWG.Wait()
	// Graceful shutdown: write the pinned pool back to the PMem before
	// surrendering the partition, so a close is never lossier than a crash
	// (eADR would have drained these lines anyway). A crash-stopped engine
	// skips this — the power is already off.
	if p := e.failed.Load(); p == nil || *p != errEngineCrashed {
		if r, ok := e.m.LookupRegion(e.env.regionName("pool")); ok {
			th := e.m.NewThread(0)
			e.m.Cache.FlushOpt(th.Clock, r.Addr, int(r.Size))
		}
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

// Store is what both engine shapes (*Engine and the *Sharded router) offer on
// top of kvstore.DB: the one mutation entry, bulk ingest, the crash-stop hook,
// and the counters the public API reports. Callers outside the package hold a
// Store instead of probing a kvstore.DB for individual methods.
type Store interface {
	kvstore.DB
	kvstore.Halter
	Write(th *hw.Thread, b *Batch, deadlineNs int64) error
	Ingest(th *hw.Thread, entries []lsm.IngestEntry) error
	FlowState() FlowState
	FlowStats() FlowStats
	FlowSignals() (l0Files int, l0Bytes int64, backlogBytes uint64)
	BlockCacheStats() blockcache.Stats
	FilterStats() (probes, negatives int64)
}

var (
	_ Store = (*Engine)(nil)
	_ Store = (*Sharded)(nil)
)
