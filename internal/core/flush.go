package core

import (
	"sync"

	"cachekv/internal/bgpool"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/lsm"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// spillFraction is the ImmZone fill fraction that triggers the L0 spill.
const spillFraction = 0.75

// immTable is one sub-ImmMemTable after its copy-based flush: the entry bytes
// live in the ImmZone (PMem) and its sub-skiplist stays in DRAM. With
// SkiplistCompaction on, the active-key table's entries of its slot
// incarnation name it until the spill retires it.
type immTable struct {
	base       uint64 // ImmZone address of the data region
	dataLen    uint64
	count      uint64
	maxSeq     uint64
	list       *skiplist.List
	indexDoneV int64 // virtual time the index thread finished this table's sync
	// name is the slot incarnation the table was flushed from (activeRef
	// without the offset), or recovery's recoveredName.
	name uint64
	// unplaced is the slot's mark (slot.unplaced), moved here by the flush:
	// the table holds a version the active-key table left out.
	unplaced bool
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
// n extents of near-equal length, one job each on the flush servers. skew is
// how far past an XPLine the data region starts.
type flushExtents struct {
	tail, skew uint64
	n          int
}

// splitFlush is the extent rule, the one flushOne copies by, flushFloor
// bounds by and recovery reads by: min(servers, tail / flushSplitBytes)
// extents, at least one, of a data region skew bytes past an XPLine (an
// ImmZone table's starts immZoneHdrSize past an immZoneAlign-aligned
// allocation).
func splitFlush(tail uint64, servers int, skew uint64) flushExtents {
	n := min(uint64(max(servers, 1)), tail/flushSplitBytes)
	return flushExtents{tail: tail, skew: skew % immZoneAlign, n: int(max(n, 1))}
}

// seam returns the data-region offset extent i starts at (seam(n) is the
// tail). An inner seam is moved up to the next XPLine, so no XPLine takes
// stores from two extents, and the extents' NT stores fill the same whole
// XPLines the one-piece copy did.
func (x flushExtents) seam(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= x.n:
		return x.tail
	}
	at := x.skew + uint64(i)*x.tail/uint64(x.n)
	return (at+immZoneAlign-1)&^(immZoneAlign-1) - x.skew
}

// largest returns the length of the longest extent.
func (x flushExtents) largest() uint64 {
	var l uint64
	for i := range x.n {
		l = max(l, x.seam(i+1)-x.seam(i))
	}
	return l
}

// memState is the engine's DRAM view of the memory component's flushed
// tables, in registration order. A flush appends its table; the L0 spill
// retires them all at once.
type memState struct {
	mu   sync.RWMutex
	imms []*immTable
}

// registered reports whether a table is registered.
func (ms *memState) registered() bool {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	return len(ms.imms) > 0
}

// table returns the registered table of the given name (immTable.name), or
// nil. The newest of two that share a name is returned: a slot's incarnation
// counter wraps, and a Get checks the entry it fetches.
func (ms *memState) table(name uint64) *immTable {
	ms.mu.RLock()
	defer ms.mu.RUnlock()
	for i := len(ms.imms) - 1; i >= 0; i-- {
		if t := ms.imms[i]; t.name == name {
			return t
		}
	}
	return nil
}

// startBackground starts the engine's one background worker, which takes
// the sealed slots in seal order: the paper's N flush threads. Nothing else
// has a host goroutine of its own. The lazy syncs run where they fire
// (indexSync), booked on indexServer; a spill runs in the flush that fills
// the ImmZone (spillFrom), booked on spillServer; and compaction runs where
// its debt is made (compact), on the compaction threads, booked on
// compactServer. Each server is virtual, so that configured thread counts,
// not host scheduling, pace the pipeline (Exp#3/#5).
//
// A flush thread is a virtual server: the worker books each table's copy on
// the earliest-free of the FlushThreads servers, so tables copy side by side
// in virtual time while the host copies them one at a time, through one
// buffer. A table of at least twice flushSplitBytes copies as several
// extents, one per server (splitFlush), so a lone seal does not wait out a
// whole table's copy on one server while the others idle. That split is an
// extension: the paper's flush threads each copy whole tables.
func (e *Engine) startBackground() {
	o := e.opts
	// A slot is queued at most once at a time: 1 024 is far beyond any pool's
	// slot count.
	e.flushes = bgpool.New(bgpool.Config{Name: "flush", Queue: 1024, Server: sim.NewServerPool(o.FlushThreads)},
		e.flushOne, func(s *slot) {
			_, _, tail := unpackHdr(s.hdr.Load())
			e.addPending(-1, tail) // the power failure preempted the flush
		}, e.fail)
	for range o.CompactionWorkers {
		th := e.m.NewThread(0)
		th.Clock.SetLabel(hw.PhaseCompact.Layer())
		e.compactThreads = append(e.compactThreads, th)
	}
	e.compactServer = sim.NewServerPool(o.CompactionWorkers)
	e.spillServer = sim.NewServerPool(1)
	e.indexServer = sim.NewServerPool(1)
	e.indexTh = e.m.NewThread(0)
	e.indexTh.Clock.SetLabel(hw.PhaseIndex.Layer())
}

// addPending moves a sealed slot of tail bytes into (n = 1) or out of (n = -1)
// the flush backlog.
func (e *Engine) addPending(n int64, tail uint64) {
	e.pendingFlushes.Add(n)
	e.pendingFlushBytes.Add(n * int64(tail))
}

// spillFrom runs the L0 spill a flush calls for at virtual time at, on a
// spill thread of its own (LevelDB's compaction thread in the prototype), and
// returns its end on spillServer: the flush spills when its table takes the
// ImmZone past spillFraction, so that copy-based flushes stay cheap, or
// before its copy when the zone has no room for the table. The flush worker
// then compacts the debt the spill made, from the spill's end (compact).
func (e *Engine) spillFrom(at int64) int64 {
	th := e.m.NewThread(0)
	th.Clock.AdvanceTo(at)
	start := th.Clock.Now()
	th.InPhase(hw.PhaseSpill, func() { e.spill(th) })
	done := e.spillServer.Submit(at, th.Clock.Now()-start)
	e.compact(th.Clock.Now())
	return done
}

// flushOne is the flush worker's job: the copy-based flush of one sub-MemTable
// sealed at virtual time sealedAt (Section III-C), whose final index sync ran
// at the seal — a non-temporal whole-table copy into the ImmZone,
// registration of the resulting sub-ImmMemTable under the slot's incarnation,
// which keeps the active-key table's entries of it live, and release of the
// slot. The flush spills the ImmZone to L0 (spillFrom) when its table takes
// the zone past spillFraction, or before its copy when the zone has no room
// for the table, so the tables a spill covers follow seal order.
//
// The copy runs as flushExtents' extents, each a job of its own on the flush
// servers with a thread of its own: the dispatch cost, its lines' reads, NT
// stores and packing. The first extent also carries the zone allocation and
// the header. The host copies the table in one pass, in address order,
// through the worker's one buffer.
func (e *Engine) flushOne(sealedAt int64, s *slot) {
	count, _, tail := unpackHdr(s.hdr.Load())
	th := e.m.NewThread(0)
	th.Clock.SetLabel(hw.PhaseBgFlush.Layer())
	th.Clock.AdvanceTo(sealedAt)
	start := th.Clock.Now()
	e.trace.Emit(start, "flush_start", "shard", e.env.index, "slot", s.idx)
	var stallNs int64
	// Fixed per-flush dispatch and metadata cost: the reason over-small
	// sub-MemTables hurt write throughput (the paper's Exp#6 left side).
	th.Clock.Advance(e.m.Costs.FlushFixed)

	x := splitFlush(tail, e.flushes.Server.Size(), immZoneHdrSize)
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
		need := immZoneHdrSize + tail
		var dst uint64
		for spilled := false; ; spilled = true {
			e.spillMu.RLock()
			var err error
			if dst, err = e.immArena.Alloc(need, immZoneAlign); err == nil {
				break // keep RLock held through the copy
			}
			e.spillMu.RUnlock()
			// A table that does not fit an empty zone is a config error.
			if spilled || need > e.immArena.Region().Size {
				e.fail(err)
				return
			}
			// ImmZone full: spill it first (the CacheKV analogue of an L0
			// write stall), and copy from the spill's end.
			w0 := th.Clock.Now()
			th.Clock.AdvanceTo(e.spillFrom(w0))
			stallNs = th.Clock.Now() - w0
			if e.bgErr() != nil {
				e.addPending(-1, tail)
				return
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
		// The final sync indexed every entry of the table, so the highest
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
			indexDoneV: s.indexDoneV,
			name:       incarnationName(s.idx, s.gen.Load()),
		}
		s.syncMu.Unlock()
		// The slot's entries live on through the table, and its mark with
		// them; without SkiplistCompaction they die when freeSlot frees it.
		t.unplaced = e.opts.SkiplistCompaction && s.unplaced.Swap(false)
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
	// finished the table's final sync, run at the seal, which keeps the whole
	// pipeline paced by the paper's one-flush-thread/one-index-thread
	// configuration. Time spent spilling before the copy is not flush-server
	// work, but the slot cannot free before the copy ended.
	doneAt, end := s.indexDoneV, start
	for _, xth := range ths {
		now := xth.Clock.Now()
		doneAt = max(doneAt, e.flushes.Server.Submit(sealedAt, now-start-stallNs), now)
		end = max(end, now)
	}
	th.Clock.AdvanceTo(end) // the flush goes on from its last extent's end
	e.freeSlot(th, s, doneAt)

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

	e.addPending(-1, tail)
	e.flow.recompute(th.Clock.Now(), "flush_end")
	if e.bgErr() == nil && e.immArena.Used() > uint64(float64(e.immArena.Region().Size)*spillFraction) {
		e.spillFrom(th.Clock.Now())
	}
}

// spill writes every registered table out to L0 on th, under the spill lock
// held exclusively, and refreshes flow control.
func (e *Engine) spill(th *hw.Thread) {
	e.spillMu.Lock()
	e.spillLocked(th)
	e.spillMu.Unlock()
	e.flow.recompute(th.Clock.Now(), "spill_end")
}

// spillLocked merges every sub-ImmMemTable into L0 SSTables, then retires
// them, which kills the active-key table's entries of them, and resets the
// ImmZone. Deferred space reclamation happens here —
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
	var maxSeq uint64
	for i := len(imms) - 1; i >= 0; i-- { // newest first for merge tie-break
		t := imms[i]
		th.Clock.AdvanceTo(t.indexDoneV)
		its = append(its, e.newSnapIter(th, t))
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
	raiseTo(&e.maxSpilledSeq, maxSeq)
	// Retire the tables and reclaim the zone (spillMu keeps every flush out
	// meanwhile).
	e.mem.mu.Lock()
	e.mem.imms = nil
	e.mem.mu.Unlock()
	for _, t := range imms {
		if t.unplaced {
			e.active.Load().unplaced.Add(-1)
		}
	}
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

// indexSync runs the lazy sync of slot s that trigger 2 (a write crossing a
// multiple of SyncThreshold) or 3 (the seal) fires at virtual time at, on the
// firing goroutine and the index thread, whose clock measures it, and returns
// its completion on the index server. Lock order: pool.mu (a force-rotation
// seals under it), indexMu, slot.syncMu.
func (e *Engine) indexSync(at int64, s *slot) int64 {
	e.indexMu.Lock()
	defer e.indexMu.Unlock()
	start := e.indexTh.Clock.Now()
	e.syncSlot(e.indexTh, s)
	return e.indexServer.Submit(at, e.indexTh.Clock.Now()-start)
}

// compact runs compaction rounds from virtual time at, where a spill, an
// ingest, FlushAll or a reopen made debt, on the calling goroutine, until
// nothing is due, the engine failed or it closed. Each round runs up to
// CompactionWorkers disjoint jobs side by side in virtual time, one per
// compaction thread, from the later of at and the previous round's end
// (lsm.Tree.CompactRound); flow control recomputes at each round's end.
// compactMu runs one caller's rounds at a time. It returns the later of at
// and the end of the engine's last round.
func (e *Engine) compact(at int64) int64 {
	e.compactMu.Lock()
	defer e.compactMu.Unlock()
	for e.bgErr() == nil && !e.closed.Load() {
		done, ran, err := e.tree.CompactRound(e.compactThreads, at, e.compactServer, e.trace)
		at = done
		if err != nil {
			e.fail(err)
			break
		}
		if !ran {
			break
		}
		e.flow.recompute(done, "lsm_compaction")
	}
	return at
}
