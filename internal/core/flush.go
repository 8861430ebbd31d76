package core

import (
	"sync"

	"cachekv/internal/bgpool"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/lsm"
	"cachekv/internal/memfilter"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// spillFraction is the ImmZone fill fraction that triggers the L0 spill.
const spillFraction = 0.75

// immTable is one sub-ImmMemTable after its copy-based flush: the entry bytes
// live in the ImmZone (PMem), its sub-skiplist stays in DRAM, and a compacted
// flag records whether the global index already covers it.
type immTable struct {
	base       uint64 // ImmZone address of the data region
	dataLen    uint64
	count      uint64
	maxSeq     uint64
	list       *skiplist.List
	filter     *memfilter.Filter // negative filter over the table's user keys
	compacted  bool
	indexDoneV int64 // virtual time the index thread finished this table's sync
}

// snapshotInto bulk-reads the table's data region sequentially (one pass,
// the way a real merge streams its inputs) into buf, grown when it is too
// small, and returns that DRAM copy for the spill merge to decode from.
func (t *immTable) snapshotInto(e *Engine, th *hw.Thread, buf []byte) []byte {
	buf = util.Sized(buf, int(t.dataLen))
	e.m.PMem.Read(th.Clock, t.base, buf)
	return buf
}

// immZoneHdrSize is the persistent per-table header written ahead of each
// flushed table so crash recovery can re-discover the ImmZone contents:
// magic, dataLen, count, maxSeq.
const (
	immZoneHdrSize = 32
	immHeaderMagic = 0x133C4E_F1A5
	immZoneAlign   = 256 // XPLine alignment keeps NT copies amplification-free
)

// flushSplitBytes is the least a table gives each extent of its copy-based
// flush. The floor is a constant, not the table over the servers: every
// extent pays the whole FlushFixed, so cutting a 256 KiB table four ways
// would add three 250 µs dispatches to its 1.5 ms of server work, which
// busy servers pay for in throughput (DESIGN §2).
const flushSplitBytes = 512 << 10

// flushExtents is how the copy-based flush cuts a table of tail bytes: into
// n extents of near-equal length, one job each on the flush servers.
type flushExtents struct {
	tail uint64
	n    int
}

// splitFlush is the extent rule, the one flushOne copies by and flushFloor
// bounds by: min(servers, tail / flushSplitBytes) extents, at least one.
func splitFlush(tail uint64, servers int) flushExtents {
	n := min(uint64(max(servers, 1)), tail/flushSplitBytes)
	return flushExtents{tail: tail, n: int(max(n, 1))}
}

// seam returns the data-region offset extent i starts at (seam(n) is the
// tail). An inner seam is moved up to the next XPLine of the ImmZone — the
// data region starts immZoneHdrSize past an immZoneAlign-aligned allocation —
// so no XPLine takes stores from two extents, and the extents' NT stores
// fill the same whole XPLines the one-piece copy did.
func (x flushExtents) seam(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= x.n:
		return x.tail
	}
	at := immZoneHdrSize + uint64(i)*x.tail/uint64(x.n)
	return (at+immZoneAlign-1)&^(immZoneAlign-1) - immZoneHdrSize
}

// largest returns the length of the longest extent.
func (x flushExtents) largest() uint64 {
	var l uint64
	for i := range x.n {
		l = max(l, x.seam(i+1)-x.seam(i))
	}
	return l
}

// memState is the engine's DRAM view of the memory component: flushed tables
// plus the global index. Swapped wholesale at L0 spill.
type memState struct {
	mu         sync.RWMutex
	imms       []*immTable
	global     *hashIndex
	filterBits int // sizes the tables' and slots' negative filters
}

func newMemState(filterBits int) *memState {
	return &memState{global: newHashIndex(seededHash, 0), filterBits: filterBits}
}

// newFilter builds a negative filter, or nil when filters are disabled
// (bitsPerKey <= 0). Every probe site tolerates nil as "may contain".
func newFilter(expectedKeys, bitsPerKey int) *memfilter.Filter {
	if bitsPerKey <= 0 {
		return nil
	}
	return memfilter.New(expectedKeys, bitsPerKey)
}

// startBackground adds the engine's five kinds of background job to its pool:
// the paper's N flush threads and one index thread (its trigger-2 syncs and
// its sub-skiplist merges on workers of their own, so that a merge never holds
// queued syncs back), the spill thread, and the LSM compaction workers. Each
// kind books its jobs on its own virtual server — sync and merge on the index
// thread's one — so that configured thread counts, not host scheduling, pace
// the pipeline (Exp#3/#5). The order is Close's: an in-flight flush may still
// submit a spill, a sync or a merge, and a spill a compaction.
//
// A flush thread is a virtual server: one host worker takes the sealed slots
// in seal order and books each table's copy on the earliest-free of the
// FlushThreads servers, so tables copy side by side in virtual time while the
// host copies them one at a time, through one buffer. A table of at least
// twice flushSplitBytes copies as several extents, one per server
// (splitFlush), so a lone seal does not wait out a whole table's copy on one
// server while the others idle. That split is an extension: the paper's
// flush threads each copy whole tables.
func (e *Engine) startBackground() {
	o := e.opts
	// A slot is queued at most once at a time: 1 024 is far beyond any pool's
	// slot count.
	e.flushes = bgpool.Add(e.bg, bgpool.Config{Name: "flush", Workers: 1, Rule: bgpool.FIFO, Queue: 1024, Server: sim.NewServerPool(o.FlushThreads)},
		e.flushOne, func(s *slot) {
			_, _, tail := unpackHdr(s.hdr.Load())
			e.addPending(-1, tail) // the power failure preempted the flush
		})
	// A spill asked for while one is queued is the queued one.
	e.spills = bgpool.Add(e.bg, bgpool.Config{Name: "spill", Workers: 1, Rule: bgpool.Lossy, Queue: 1}, e.spillJob, nil)
	for range o.CompactionWorkers {
		th := e.m.NewThread(0)
		th.Clock.SetLabel(hw.PhaseCompact.Layer())
		e.compactThreads = append(e.compactThreads, th)
	}
	e.compacts = bgpool.Add(e.bg, bgpool.Config{Name: "compact", Workers: o.CompactionWorkers, Rule: bgpool.Coalesce, Abandon: true}, e.compactJob, nil)
	// Trigger 2 asks for a sync every SyncThreshold writes; a request that
	// finds 4 096 queued is dropped, and a later one or the reader catches up.
	e.syncs = bgpool.Add(e.bg, bgpool.Config{Name: "sync", Workers: 1, Rule: bgpool.Lossy, Queue: 4096}, e.syncJob,
		func(*slot) { e.pendingSyncs.Add(-1) })
	e.merges = bgpool.Add(e.bg, bgpool.Config{Name: "merge", Workers: 1, Rule: bgpool.Coalesce, Server: e.syncs.Server}, e.mergeJob, nil)
}

// addPending moves a sealed slot of tail bytes into (n = 1) or out of (n = -1)
// the flush backlog.
func (e *Engine) addPending(n int64, tail uint64) {
	e.pendingFlushes.Add(n)
	e.pendingFlushBytes.Add(n * int64(tail))
}

// spillJob is the spill kind's job, the LSM background thread (LevelDB's
// compaction thread in the prototype): it spills from the request's instant,
// so that copy-based flushes stay cheap and writers only stall when
// the ImmZone is genuinely out of space, then hands the debt it created to the
// compaction workers and returns to serving writers.
func (e *Engine) spillJob(_ int, at int64, _ struct{}) (int64, bool) {
	th := e.m.NewThread(0)
	th.Clock.AdvanceTo(at)
	start := th.Clock.Now()
	th.InPhase(hw.PhaseSpill, func() {
		e.spillMu.Lock()
		e.spillLocked(th)
		e.spillMu.Unlock()
	})
	done := e.spills.Server.Submit(at, th.Clock.Now()-start)
	e.flow.recompute(th.Clock.Now(), "spill_end")
	e.compacts.Submit(th.Clock.Now(), struct{}{})
	return done, false
}

// waitForSpace blocks (really and virtually) until the ImmZone can hold need
// more bytes, driving the spill thread as necessary. deadlineV bounds the
// wait on the virtual clock: each retry — one per spill — charges a capped
// exponential backoff step, and once the clock passes the deadline the wait
// returns ErrStalled so the caller can refresh pressure state instead of
// hanging forever. Zero waits without bound.
func (e *Engine) waitForSpace(th *hw.Thread, need uint64, deadlineV int64) error {
	var backoff stallBackoff
	stalled := false
	if !e.spills.Wait(func() bool {
		if e.immArena.Region().Size-e.immArena.Used() >= need {
			return true
		}
		if deadlineV > 0 && !backoff.step(th, deadlineV) {
			stalled = true
			return true
		}
		e.spills.Submit(th.Clock.Now(), struct{}{})
		return false
	}) {
		return nil // crash-stopped: the caller re-checks the failure
	}
	if stalled {
		return ErrStalled
	}
	th.Clock.AdvanceTo(e.spills.LastDone())
	return nil
}

// flushOne is the flush kind's job: the copy-based flush of one sub-MemTable
// sealed at virtual time sealedAt (Section III-C) — a final index sync, a
// non-temporal whole-table copy into the ImmZone, registration of the
// resulting sub-ImmMemTable, and release of the slot. If the ImmZone crosses
// its threshold, it spills to L0.
//
// The copy runs as flushExtents' extents, each a job of its own on the flush
// servers with a thread of its own: the dispatch cost, its lines' reads, NT
// stores and packing. The first extent also carries the zone allocation and
// the header; the final sync is the index thread's. The host copies the
// table in one pass, in address order, through the kind's one buffer.
func (e *Engine) flushOne(_ int, sealedAt int64, s *slot) (int64, bool) {
	_, _, sealedTail := unpackHdr(s.hdr.Load())
	th := e.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseBgFlush.Layer())
	th.Clock.AdvanceTo(sealedAt)
	start := th.Clock.Now()
	e.trace.Emit(start, "flush_start", "shard", e.env.index, "slot", s.idx)
	var stallNs int64
	// Fixed per-flush dispatch and metadata cost: the reason over-small
	// sub-MemTables hurt write throughput (the paper's Exp#6 left side).
	th.Clock.Advance(e.m.Costs.FlushFixed)

	// Trigger 3 of the lazy index update: the table is full, synchronize.
	// The work itself runs here (the sub-skiplist must be complete before it
	// moves to the ImmZone registry), but its virtual time is billed to the
	// dedicated index thread, which overlaps with the copy-based flush.
	syncTh := e.m.NewThread(0)
	syncTh.Clock.SetLabel(hw.PhaseIndex.Layer())
	syncTh.Clock.AdvanceTo(sealedAt)
	e.syncSlot(syncTh, s)
	indexDoneV := e.bookSync(sealedAt, syncTh.Clock.Now()-sealedAt)

	count, _, tail := unpackHdr(s.hdr.Load())
	x := splitFlush(tail, e.flushes.Server.Size())
	ths := []*hw.Thread{th}
	for range x.n - 1 {
		xth := e.m.NewThread(0)
		xth.Clock.SetLabel(hw.PhaseBgFlush.Layer())
		xth.Clock.AdvanceTo(start)
		xth.Clock.Advance(e.m.Costs.FlushFixed)
		ths = append(ths, xth)
	}
	var t *immTable
	if tail > 0 {
		// Hold the spill lock shared across the whole copy+register section:
		// a concurrent spill resets the arena and must not reclaim an
		// allocation whose NT copy is still in flight.
		var dst uint64
		for {
			e.spillMu.RLock()
			var err error
			dst, err = e.immArena.Alloc(immZoneHdrSize+tail, immZoneAlign)
			if err == nil {
				break // keep RLock held through the copy
			}
			e.spillMu.RUnlock()
			// ImmZone full: a table that cannot fit even in an empty zone is
			// a config error; otherwise wait for the spill thread to reclaim
			// space (the CacheKV analogue of an L0 write stall).
			if immZoneHdrSize+tail > e.immArena.Region().Size {
				e.fail(err)
				return 0, false
			}
			w0 := th.Clock.Now()
			werr := e.waitForSpace(th, immZoneHdrSize+tail, absDeadline(th, e.opts.WriteStallDeadline))
			stallNs += th.Clock.Now() - w0
			if e.bgErr() != nil {
				e.addPending(-1, sealedTail)
				return 0, false
			}
			if werr != nil {
				// The ImmZone wait overran the stall deadline. The flusher
				// cannot drop the sealed data, so it retries in place — but
				// each bounded round surfaces the stall in the trace and
				// refreshes the flow-control state, escalating admission to
				// Slowdown/Stop so the foreground sheds load instead of
				// piling more seals behind this one.
				e.trace.Emit(th.Clock.Now(), "flush_stall", "shard", e.env.index,
					"slot", s.idx, "need", immZoneHdrSize+tail)
				e.flow.recompute(th.Clock.Now(), "flush_stall")
			}
		}
		// Every extent waited for the zone's space with the first.
		for _, xth := range ths[1:] {
			xth.Clock.Advance(stallNs)
		}
		// Persistent header first, then the modified-memcpy of the data
		// region: reads hit the pinned cache lines, stores are non-temporal.
		hdr := util.PutFixed64(nil, immHeaderMagic)
		hdr = util.PutFixed64(hdr, tail)
		hdr = util.PutFixed64(hdr, count)
		// The final sync above indexed every entry of the table, so the highest
		// sequence number it saw go by is the table's.
		s.syncMu.Lock()
		maxSeq := s.listMaxSeq
		s.syncMu.Unlock()
		hdr = util.PutFixed64(hdr, maxSeq)
		e.m.Cache.NTWrite(th.Clock, dst, hdr)

		e.flushBuf = util.Sized(e.flushBuf, int(tail))
		for i, xth := range ths {
			lo, hi := x.seam(i), x.seam(i+1)
			e.m.Cache.Read(xth.Clock, s.dataAddr()+lo, e.flushBuf[lo:hi], e.poolPart)
			e.m.Cache.NTWrite(xth.Clock, dst+immZoneHdrSize+lo, e.flushBuf[lo:hi])
			// The flush thread's software share: allocation, packing, verify.
			xth.Clock.Advance(int64(hi-lo) * e.m.Costs.FlushBytePerKB / 1024)
		}

		s.syncMu.Lock()
		t = &immTable{
			base:       dst + immZoneHdrSize,
			dataLen:    tail,
			count:      count,
			maxSeq:     maxSeq,
			list:       s.list,
			filter:     s.filter.Load(), // covers exactly this slot's committed keys
			indexDoneV: indexDoneV,
		}
		s.syncMu.Unlock()
		// Register before releasing the spill lock so a racing spill either
		// sees this table or runs after it is fully installed.
		e.mem.mu.Lock()
		e.mem.imms = append(e.mem.imms, t)
		e.mem.mu.Unlock()
		// Only now clear the slot. Get probes the slots before the imm
		// tables, so the list must be reachable from the registry before it
		// leaves the slot or a concurrent Get finds the table in neither
		// place; finding it in both is harmless (same entries, same seqs).
		s.syncMu.Lock()
		s.list = nil
		s.syncMu.Unlock()
		e.spillMu.RUnlock()
		e.stats.Flushes.Add(1)
	}

	// Model the flush duration on the configured server pool: the slot is
	// reusable only once the flush servers have actually done every extent
	// of the copy in virtual time — and not before the index thread has
	// finished the table's final sync, which keeps the whole pipeline paced
	// by the paper's one-flush-thread/one-index-thread configuration. Stall
	// time spent waiting for the spill thread is not flush-server work, but
	// the slot cannot free before the copy ended.
	doneAt, end := indexDoneV, start
	for _, xth := range ths {
		now := xth.Clock.Now()
		doneAt = max(doneAt, e.flushes.Server.Submit(sealedAt, now-start-stallNs), now)
		end = max(end, now)
	}
	th.Clock.AdvanceTo(end) // the flush goes on from its last extent's end
	e.pool.markFree(th, s, doneAt)

	// Hand the new table to the index/compaction thread (Section III-D).
	if t != nil && e.opts.SkiplistCompaction {
		e.merges.Submit(th.Clock.Now(), struct{}{})
	}

	e.trace.Emit(th.Clock.Now(), "flush_end", "shard", e.env.index,
		"slot", s.idx, "bytes", tail, "entries", count, "stall_ns", stallNs, "free_at", doneAt)
	// Block-cache eviction pressure: surface sustained churn as a trace event
	// (every 1024 new evictions) so read-path regressions are visible in the
	// lifecycle stream, not only as an aggregate hit ratio.
	if e.trace != nil {
		if ev := e.tree.CacheStats().Evictions; ev-e.lastBCEvicts.Load() >= 1024 {
			e.lastBCEvicts.Store(ev)
			e.trace.Emit(th.Clock.Now(), "block_cache_pressure", "evictions", ev)
		}
	}

	if e.immArena.Used() > uint64(float64(e.immArena.Region().Size)*spillFraction) {
		e.spills.Submit(th.Clock.Now(), struct{}{})
	}
	e.addPending(-1, sealedTail)
	e.flow.recompute(th.Clock.Now(), "flush_end")
	return doneAt, false
}

// spill acquires the spill lock exclusively and, if the zone is still over
// threshold (another spiller may have raced us here), writes it out to L0.
func (e *Engine) spill(th *hw.Thread) {
	e.spillMu.Lock()
	e.spillLocked(th)
	e.spillMu.Unlock()
	e.spills.Done(th.Clock.Now()) // wakes any flusher stalled on ImmZone space
	e.flow.recompute(th.Clock.Now(), "spill_end")
}

// spillLocked merges every sub-ImmMemTable into L0 SSTables, then resets the
// ImmZone and the global index. Deferred space reclamation happens here —
// exactly when "the total size of sub-ImmMemTables reaches a pre-configured
// threshold" (Section III-D). Caller holds spillMu exclusively.
func (e *Engine) spillLocked(th *hw.Thread) {
	e.mem.mu.RLock()
	imms := e.mem.imms
	e.mem.mu.RUnlock()
	if len(imms) == 0 {
		return
	}
	e.trace.Emit(th.Clock.Now(), "spill_start", "shard", e.env.index, "tables", len(imms))
	// The spill merges via the sub-skiplists, so it cannot start before the
	// index thread has finished syncing every table it covers: under
	// sustained load the single index thread is the pipeline's ceiling,
	// exactly as in the paper's one-index-thread configuration.
	its := make([]lsm.Iterator, 0, len(imms))
	// The snapshots live in the spill's own buffers, which are its again when
	// the merge below ends and serve the next spill.
	for len(e.spillBufs) < len(imms) {
		e.spillBufs = append(e.spillBufs, nil)
	}
	var maxSeq uint64
	for i := len(imms) - 1; i >= 0; i-- { // newest first for merge tie-break
		t := imms[i]
		th.Clock.AdvanceTo(t.indexDoneV)
		snap := &e.spillBufs[len(its)]
		*snap = t.snapshotInto(e, th, *snap)
		its = append(its, e.newSnapIter(t.list, *snap))
		if t.maxSeq > maxSeq {
			maxSeq = t.maxSeq
		}
	}
	var merged lsm.MergingIterator
	merged.Reset(its)
	if err := e.tree.FlushNoCompact(th, &merged, maxSeq); err != nil {
		e.fail(err)
		return
	}
	// Raise maxSpilledSeq before the tables leave memory, or a Get that misses
	// them there takes an older version in a slot as current and skips the tree.
	for {
		cur := e.maxSpilledSeq.Load()
		if maxSeq <= cur || e.maxSpilledSeq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	// Install the new memory state: no tables, a fresh global index, the
	// zone reclaimed (spillMu keeps every flush out meanwhile).
	e.mem.mu.Lock()
	e.mem.imms = nil
	// The next fill of the zone is likely to bring as many keys as the last.
	e.mem.global = newHashIndex(seededHash, int(e.mem.global.n.Load()))
	e.mem.mu.Unlock()
	// Range tombstones that just reached the tree no longer need their DRAM
	// mirrors (retirement is by tree membership, not sequence — see
	// pruneRangeTombs).
	e.pruneRangeTombs()
	e.immArena.Reset()
	// Invalidate the recovery scan: zero the first header's magic.
	zero := make([]byte, 8)
	e.m.Cache.NTWrite(th.Clock, e.immArena.Region().Addr, zero)
	e.stats.Spills.Add(1)
	e.trace.Emit(th.Clock.Now(), "spill_end", "shard", e.env.index, "tables", len(imms), "max_seq", maxSeq)
}

// requestSync asks the index thread for a trigger-2 lazy sync of slot s at
// virtual time at. pendingSyncs counts the requests not yet served, so that
// FlushAll can wait them out.
func (e *Engine) requestSync(at int64, s *slot) {
	e.pendingSyncs.Add(1)
	if !e.syncs.Submit(at, s) {
		e.pendingSyncs.Add(-1) // dropped: 4 096 were queued
	}
}

// syncJob is the sync kind's job: a trigger-2 lazy sync of slot s requested
// at virtual time at, billed to the index thread from that instant.
func (e *Engine) syncJob(_ int, at int64, s *slot) (int64, bool) {
	th := e.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseIndex.Layer())
	th.Clock.AdvanceTo(at)
	e.syncSlot(th, s)
	done := e.bookSync(at, th.Clock.Now()-at)
	e.pendingSyncs.Add(-1) // before the completion wakes FlushAll
	return done, false
}

// bookSync books a sync of d virtual ns, runnable at at, on the index
// thread's server and returns its completion.
func (e *Engine) bookSync(at, d int64) int64 {
	e.syncJobs.Add(1)
	e.syncBusyNs.Add(d)
	return e.syncs.Server.Submit(at, d)
}

// mergeJob is the merge kind's job: the index thread's sub-skiplist
// compaction. Its clock starts at 0 and its work is booked as runnable at 0,
// whatever flush asked for it (ROADMAP item 1b).
func (e *Engine) mergeJob(int, int64, struct{}) (int64, bool) {
	th := e.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseCompact.Layer())
	start := th.Clock.Now()
	e.runMerge(th)
	return e.merges.Server.Submit(start, th.Clock.Now()-start), false
}

// compactJob is the compaction kind's job: one LSM compaction picked at the
// frontier of the debt-creating events, run on worker w's own clock. It asks
// to run again until nothing is pickable.
func (e *Engine) compactJob(w int, at int64, _ struct{}) (int64, bool) {
	done, ran, err := e.tree.CompactNext(e.compactThreads[w], at, e.compacts, e.trace)
	if err != nil {
		e.fail(err)
		return done, false
	}
	if ran {
		e.flow.recompute(done, "lsm_compaction")
	}
	return done, ran
}

// runMerge merges every not-yet-compacted sub-ImmMemTable into the global
// index.
func (e *Engine) runMerge(th *hw.Thread) {
	e.mem.mu.RLock()
	var todo []*immTable
	global := e.mem.global
	for _, t := range e.mem.imms {
		if !t.compacted {
			todo = append(todo, t)
		}
	}
	e.mem.mu.RUnlock()
	if len(todo) == 0 {
		return
	}
	e.mergeInto(th, global, todo)
	e.mem.mu.Lock()
	// The global index may have been swapped by a spill while we merged; the
	// tables count as compacted only if it is still current.
	if e.mem.global == global {
		for _, t := range todo {
			t.compacted = true
		}
	}
	e.mem.mu.Unlock()
	e.stats.Compactions.Add(1)
	e.trace.Emit(th.Clock.Now(), "skiplist_compaction", "tables", len(todo))
}
