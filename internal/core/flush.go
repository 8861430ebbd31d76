package core

import (
	"sync"

	"cachekv/internal/hw"
	"cachekv/internal/lsm"
	"cachekv/internal/memfilter"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// spillFraction is the ImmZone fill fraction that triggers the L0 spill.
const spillFraction = 0.75

// immTable is one sub-ImmMemTable after its copy-based flush: the entry bytes
// live in the ImmZone (PMem), its sub-skiplist stays in DRAM, and a compacted
// flag records whether the global skiplist already covers it.
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

// memState is the engine's DRAM view of the memory component: flushed tables
// plus the global skiplist and its negative filter. Swapped wholesale at L0
// spill.
type memState struct {
	mu           sync.RWMutex
	imms         []*immTable
	global       *skiplist.List
	globalFilter *memfilter.Filter // covers every key merged into global

	// Filter sizing for replacement filters installed at spill.
	expGlobalKeys int
	filterBits    int
}

func newMemState(expGlobalKeys, filterBits int) *memState {
	return &memState{
		global:        skiplist.New(nil, 0xC0117EC7),
		globalFilter:  newFilter(expGlobalKeys, filterBits),
		expGlobalKeys: expGlobalKeys,
		filterBits:    filterBits,
	}
}

// newFilter builds a negative filter, or nil when filters are disabled
// (bitsPerKey <= 0). Every probe site tolerates nil as "may contain".
func newFilter(expectedKeys, bitsPerKey int) *memfilter.Filter {
	if bitsPerKey <= 0 {
		return nil
	}
	return memfilter.New(expectedKeys, bitsPerKey)
}

// flusher is the background copy-based flush loop: one goroutine per
// configured flush thread, all drawing from the shared channel. Virtual
// timing goes through the ServerPool so that the *number* of flush threads
// (Exp#5) governs when slots become reusable, independent of host scheduling.
func (e *Engine) flusher() {
	defer e.flushWG.Done()
	var buf []byte // the table being copied; one buffer serves every flush
	for s := range e.flushCh {
		buf = e.flushOne(s, buf)
	}
}

// spillLoop is the LSM background thread (LevelDB's compaction thread in the
// prototype): it serves L0 spill requests so that copy-based flushes stay
// cheap and writers only stall when the ImmZone is genuinely out of space.
func (e *Engine) spillLoop() {
	defer e.spillWG.Done()
	for at := range e.spillCh {
		e.serveSpill(at)
	}
}

// serveSpill is one spillLoop iteration: the spill itself, then a kick so the
// compaction scheduler's workers pick up the debt it created while the spill
// thread returns to serving writers immediately.
func (e *Engine) serveSpill(at int64) {
	if e.bgErr() != nil {
		// Crash-stopped: acknowledge the request so waiters re-check
		// the failure instead of sleeping forever.
		e.spillState.mu.Lock()
		e.spillState.cond.Broadcast()
		e.spillState.mu.Unlock()
		return
	}
	th := e.m.NewThread(0)
	th.Clock.AdvanceTo(at)
	start := th.Clock.Now()
	th.InPhase(hw.PhaseSpill, func() {
		e.spillMu.Lock()
		e.spillLocked(th)
		e.spillMu.Unlock()
	})
	done := e.spillServer.Submit(at, th.Clock.Now()-start)
	e.spillState.mu.Lock()
	if done > e.spillState.doneV {
		e.spillState.doneV = done
	}
	e.spillState.cond.Broadcast()
	e.spillState.mu.Unlock()
	e.flow.recompute(th.Clock.Now(), "spill_end")
	e.tree.Kick(th.Clock.Now())
}

// requestSpill asks the spill thread to run (idempotent while one is queued).
func (e *Engine) requestSpill(at int64) {
	select {
	case e.spillCh <- at:
	default:
	}
}

// waitForSpace blocks (really and virtually) until the ImmZone can hold need
// more bytes, driving the spill thread as necessary. deadlineV bounds the
// wait on the virtual clock: each retry charges a capped exponential backoff
// step, and once the clock passes the deadline the wait returns ErrStalled so
// the caller can refresh pressure state instead of hanging forever. Zero
// waits without bound.
func (e *Engine) waitForSpace(th *hw.Thread, need uint64, deadlineV int64) error {
	var backoff stallBackoff
	e.spillState.mu.Lock()
	for e.immArena.Region().Size-e.immArena.Used() < need {
		if e.bgErr() != nil {
			e.spillState.mu.Unlock()
			return nil
		}
		if deadlineV > 0 && !backoff.step(th, deadlineV) {
			e.spillState.mu.Unlock()
			return ErrStalled
		}
		// Request under the state lock: the spill thread's completion
		// broadcast also takes it, so the request cannot be consumed and
		// answered between our check and the Wait (no missed wakeup).
		e.requestSpill(th.Clock.Now())
		e.spillState.cond.Wait()
	}
	doneV := e.spillState.doneV
	e.spillState.mu.Unlock()
	th.Clock.AdvanceTo(doneV)
	return nil
}

// flushOne performs the copy-based flush of one sealed sub-MemTable
// (Section III-C): a final index sync, a non-temporal whole-table copy into
// the ImmZone, registration of the resulting sub-ImmMemTable, and release of
// the slot. If the ImmZone crosses its threshold, it spills to L0. The table
// passes through buf, which is returned (grown if need be) for the next flush.
func (e *Engine) flushOne(s *slot, buf []byte) []byte {
	_, _, sealedTail := unpackHdr(s.hdr.Load())
	finish := func() {
		e.pendingFlushes.Add(-1)
		e.pendingFlushBytes.Add(-int64(sealedTail))
	}
	if err := e.bgErr(); err != nil {
		// Crash-stopped: abandon the work, the power failure preempted it.
		finish()
		return buf
	}
	th := e.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseBgFlush.Layer())
	th.Clock.AdvanceTo(s.sealedAt.Load())
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
	syncTh.Clock.AdvanceTo(s.sealedAt.Load())
	e.syncSlot(syncTh, s)
	indexDoneV := e.indexServer.Submit(s.sealedAt.Load(), syncTh.Clock.Now()-s.sealedAt.Load())

	count, _, tail := unpackHdr(s.hdr.Load())
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
				return buf
			}
			w0 := th.Clock.Now()
			werr := e.waitForSpace(th, immZoneHdrSize+tail, absDeadline(th, e.opts.WriteStallDeadline))
			stallNs += th.Clock.Now() - w0
			if e.bgErr() != nil {
				finish()
				return buf
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

		buf = util.Sized(buf, int(tail))
		e.m.Cache.Read(th.Clock, s.dataAddr(), buf, e.poolPart)
		e.m.Cache.NTWrite(th.Clock, dst+immZoneHdrSize, buf)
		// The flush thread's software share: allocation, packing, verify.
		th.Clock.Advance(int64(tail) * e.m.Costs.FlushBytePerKB / 1024)

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
	// reusable only once one of the k flush servers has actually done the
	// copy in virtual time — and not before the index thread has finished
	// the table's final sync, which keeps the whole pipeline paced by the
	// paper's one-flush-thread/one-index-thread configuration. Stall time
	// spent waiting for the spill thread is not flush-server work, but the
	// slot cannot free before the copy ended.
	duration := th.Clock.Now() - start - stallNs
	doneAt := e.flushServers.Submit(s.sealedAt.Load(), duration)
	if indexDoneV > doneAt {
		doneAt = indexDoneV
	}
	if now := th.Clock.Now(); now > doneAt {
		doneAt = now
	}
	e.pool.markFree(th, s, doneAt)

	// Hand the new table to the index/compaction thread (Section III-D).
	if t != nil && e.opts.SkiplistCompaction {
		select {
		case e.compactCh <- struct{}{}:
		default:
		}
	}

	e.trace.Emit(th.Clock.Now(), "flush_end", "shard", e.env.index,
		"slot", s.idx, "bytes", tail, "entries", count, "stall_ns", stallNs)
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
		e.requestSpill(th.Clock.Now())
	}
	finish()
	e.flow.recompute(th.Clock.Now(), "flush_end")
	return buf
}

// spill acquires the spill lock exclusively and, if the zone is still over
// threshold (another spiller may have raced us here), writes it out to L0.
func (e *Engine) spill(th *hw.Thread) {
	e.spillMu.Lock()
	e.spillLocked(th)
	e.spillMu.Unlock()
	// Wake any flusher stalled on ImmZone space.
	e.spillState.mu.Lock()
	if now := th.Clock.Now(); now > e.spillState.doneV {
		e.spillState.doneV = now
	}
	e.spillState.cond.Broadcast()
	e.spillState.mu.Unlock()
	e.flow.recompute(th.Clock.Now(), "spill_end")
}

// spillLocked merges every sub-ImmMemTable into L0 SSTables, then resets the
// ImmZone and the global skiplist. Deferred space reclamation happens here —
// exactly when "the total size of sub-ImmMemTables reaches a pre-configured
// threshold" (Section III-D). Caller holds spillMu.
func (e *Engine) spillLocked(th *hw.Thread) {
	e.mem.mu.RLock()
	imms := append([]*immTable(nil), e.mem.imms...)
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
	merged := lsm.NewMergingIterator(its...)
	if err := e.tree.FlushNoCompact(th, merged, maxSeq); err != nil {
		e.fail(err)
		return
	}
	// Install the new memory state: drop the spilled tables, fresh global
	// skiplist, reclaim the zone. Tables flushed concurrently (appended to
	// e.mem.imms after our snapshot) are preserved — but they cannot exist:
	// flushOne allocates from the arena we are about to reset, so spillMu
	// callers serialize with it via the arena retry path. Keep the general
	// code anyway.
	e.mem.mu.Lock()
	var rest []*immTable
	spilled := make(map[*immTable]bool, len(imms))
	for _, t := range imms {
		spilled[t] = true
	}
	for _, t := range e.mem.imms {
		if !spilled[t] {
			rest = append(rest, t)
		}
	}
	e.mem.imms = rest
	e.mem.global = skiplist.New(nil, 0xC0117EC7)
	e.mem.globalFilter = newFilter(e.mem.expGlobalKeys, e.mem.filterBits)
	e.mem.mu.Unlock()

	for {
		cur := e.maxSpilledSeq.Load()
		if maxSeq <= cur || e.maxSpilledSeq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	// Range tombstones that just reached the tree no longer need their DRAM
	// mirrors (retirement is by tree membership, not sequence — see
	// pruneRangeTombs).
	e.pruneRangeTombs()
	if len(rest) == 0 {
		e.immArena.Reset()
		// Invalidate the recovery scan: zero the first header's magic.
		zero := make([]byte, 8)
		e.m.Cache.NTWrite(th.Clock, e.immArena.Region().Addr, zero)
	}
	e.stats.Spills.Add(1)
	e.trace.Emit(th.Clock.Now(), "spill_end", "shard", e.env.index, "tables", len(imms), "max_seq", maxSeq)
}

// syncReq is one trigger-2 lazy-sync request with the virtual time it was
// issued, so the index server can be billed from the right instant.
type syncReq struct {
	s  *slot
	at int64
}

// The paper dedicates one background thread to the lazy index updates
// (trigger 2: write-count threshold) and the sub-skiplist compaction. That
// thread is the index server: both duties bill all of their work to it, so
// its single capacity is a real pipeline ceiling. On the host they run as two
// goroutines, indexLoop and compactLoop, so that a merge never holds queued
// syncs back: otherwise the sub-skiplists fall a whole merge behind their
// writers on the host, and whether a reader then finds them current or pays
// for the catch-up itself turns on host scheduling alone.
func (e *Engine) indexLoop() {
	defer e.indexWG.Done()
	for req := range e.syncCh {
		th := e.m.NewThread(0)
		th.Clock.SetLabel(hw.PhaseIndex.Layer())
		th.Clock.AdvanceTo(req.at)
		e.syncSlot(th, req.s)
		e.indexServer.Submit(req.at, th.Clock.Now()-req.at)
	}
}

// compactLoop runs the index thread's sub-skiplist compactions.
func (e *Engine) compactLoop() {
	defer e.indexWG.Done()
	for range e.compactCh {
		th := e.m.NewThread(0)
		th.Clock.SetLabel(hw.PhaseCompact.Layer())
		start := th.Clock.Now()
		e.runCompaction(th)
		e.indexServer.Submit(start, th.Clock.Now()-start)
	}
}

// runCompaction merges every not-yet-compacted sub-ImmMemTable into the
// global skiplist.
func (e *Engine) runCompaction(th *hw.Thread) {
	e.mem.mu.RLock()
	var todo []*immTable
	global := e.mem.global
	globalFilter := e.mem.globalFilter
	for _, t := range e.mem.imms {
		if !t.compacted {
			todo = append(todo, t)
		}
	}
	e.mem.mu.RUnlock()
	if len(todo) == 0 {
		return
	}
	e.mergeInto(th, global, globalFilter, todo)
	e.mem.mu.Lock()
	// The global list may have been swapped by a spill while we merged; the
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
