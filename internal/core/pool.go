// Package core implements CacheKV, the paper's contribution: an LSM-based KV
// store whose write buffer lives in the persistent CPU caches of an
// eADR-enabled platform. The design has four cooperating mechanisms, each in
// its own file:
//
//   - pool.go: the per-core sub-MemTable pool pinned in the LLC via CAT
//     (Section III-A), including the packed 64-bit header updated by CAS and
//     the miss-counter-driven elasticity;
//   - index.go: the lazy index update machinery — DRAM sub-skiplists synced
//     from sub-MemTables on read arrival, write thresholds, or seal
//     (Section III-B);
//   - flush.go: the copy-based flush that non-temporally copies full
//     sub-ImmMemTables into the PMem ImmZone (Section III-C), the
//     sub-skiplist compaction into a global index (Section III-D), and
//     the L0 spill into the LSM tree;
//   - engine.go: the kvstore.DB surface, background threads, and crash
//     recovery (Section III-E).
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/memfilter"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// Sub-MemTable states, stored in the 2-bit state field of the packed header.
const (
	stateFree      = 0
	stateAllocated = 1
	stateImmutable = 2
)

// Packed header layout (one 64-bit word, updated atomically, mirrored into
// the persistent cache): tail pointer in bits 0..23 (24 bits), state in bits
// 24..25 (2 bits), table counter in bits 26..63 (38 bits) — exactly the field
// widths of Section III-A.
const (
	tailBits    = 24
	stateShift  = tailBits
	countShift  = tailBits + 2
	tailMask    = (1 << tailBits) - 1
	stateMask   = 0x3
	slotHdrSize = 64 // one cacheline: packed word + remaining-space field + padding
)

func packHdr(count uint64, state uint64, tail uint64) uint64 {
	return count<<countShift | state<<stateShift | tail&tailMask
}

func unpackHdr(h uint64) (count, state, tail uint64) {
	return h >> countShift, h >> stateShift & stateMask, h & tailMask
}

// slot is one sub-MemTable: a header cacheline followed by an append-only
// data region, resident in the pinned cache partition. The size is atomic
// because elasticity resizes free slots while other threads may still glance
// at stale slot pointers.
type slot struct {
	idx  int
	addr uint64        // absolute PMem address of the header
	size atomic.Uint64 // total bytes including the header line

	hdr atomic.Uint64 // packed header (authoritative mirror of the cached word)

	// appendMu is held from an append's header read through its commit CAS,
	// and by a seal. The CAS orders the header only: two appenders that read
	// the same tail write the same bytes, tearing both entries or leaving the
	// loser's under the winner's commit. Two sessions on one core share a
	// slot, and a writer can still hold a slot a starved core sealed away;
	// neither may write while another appends, and no seal lands mid-append.
	appendMu sync.Mutex

	// DRAM-side lazy index state (Section III-B), guarded by syncMu.
	syncMu    sync.Mutex
	list      *skiplist.List
	listCount uint64 // entries reflected in the sub-skiplist
	listTail  uint64 // data offset the sub-skiplist has consumed
	// listMaxSeq is the highest sequence number indexed so far: the table's
	// own once the pre-flush sync has run.
	listMaxSeq uint64
	// entryBuf and ikeyBuf are the indexer's scratch, reused entry after entry
	// (the sub-skiplist copies what it keeps).
	entryBuf, ikeyBuf []byte

	// filter is the DRAM-side negative filter over this slot's user keys.
	// Writers Add before the commit CAS, so a committed entry is always
	// covered and a negative probe soundly skips both the sub-skiplist
	// search and the trigger-1 lazy sync. Replaced wholesale at acquire.
	filter atomic.Pointer[memfilter.Filter]

	owner    atomic.Int32 // core the slot is assigned to (-1 when free)
	sealedAt atomic.Int64 // virtual time the slot became immutable
	freeAt   atomic.Int64 // virtual time its copy-based flush completes
}

func newSlot(idx int, addr, size uint64) *slot {
	s := &slot{idx: idx, addr: addr}
	s.size.Store(size)
	s.owner.Store(-1)
	return s
}

func (s *slot) dataCap() uint64  { return s.size.Load() - slotHdrSize }
func (s *slot) dataAddr() uint64 { return s.addr + slotHdrSize }

// pool is the sub-MemTable pool: a pinned region of the LLC carved into
// slots, plus the DRAM global metadata structure mapping cores to slots.
// The slot slice is copy-on-write (swapped under mu, read lock-free) so the
// hot write path never takes the pool lock.
type pool struct {
	m         *hw.Machine
	region    hw.Region
	partition cache.PartitionID

	mu      sync.Mutex
	cond    *sync.Cond
	slots   atomic.Pointer[[]*slot]
	maxSize uint64

	// Global metadata structure (kept in DRAM per Section III-A): index of
	// the sub-MemTable assigned to each core.
	coreSlot []atomic.Int32 // slot index per core, -1 = none

	missCounter atomic.Int64 // cores that found no free sub-MemTable

	// sealFn is installed by the engine (Engine.queueSealed): it queues a slot
	// force-sealed at virtual time at for its copy-based flush. Called with
	// p.mu held; must not block.
	sealFn func(at int64, s *slot)

	// aborted is set when the engine fails: acquire stops blocking and
	// returns nil so callers can surface the error instead of hanging.
	aborted atomic.Bool

	// filterBits is the bits-per-key budget for per-slot negative filters
	// (installed by the engine right after construction).
	filterBits int

	// freesSinceMiss counts slot releases with no allocation miss; a long
	// quiet stretch triggers the inverse elasticity move (merging free
	// neighbours back into bigger sub-MemTables to cut flush overhead).
	freesSinceMiss atomic.Int64
}

const poolHeaderMagic = 0xCAC4EC001

// missThreshold is how many allocation misses split the free sub-MemTables;
// mergeQuietFrees is how many consecutive miss-free slot releases signal an
// over-provisioned pool worth coalescing.
const (
	missThreshold   = 8
	mergeQuietFrees = 8
)

// poolHeaderBytes is the persistent slot-geometry table at the head of the
// pool region: magic, slot count, then {offset,size} pairs.
const poolHeaderBytes = 4096

// minSlotBytes is the smallest sub-MemTable: elasticity never splits a slot
// below it, a router's shard is sized to hold at least two, and a cross-shard
// portion must fit one (it replays into whatever slot recovery finds).
const minSlotBytes = 64 << 10

func (p *pool) slotList() []*slot { return *p.slots.Load() }

// setSlots installs a new slot slice (p.mu held).
func (p *pool) setSlots(s []*slot) { p.slots.Store(&s) }

// emptyPool is a pool over region with no slots yet and no core assigned.
func emptyPool(m *hw.Machine, region hw.Region, part cache.PartitionID, cores int) *pool {
	p := &pool{
		m:         m,
		region:    region,
		partition: part,
		maxSize:   region.Size - poolHeaderBytes,
		coreSlot:  make([]atomic.Int32, cores),
	}
	p.cond = sync.NewCond(&p.mu)
	for i := range p.coreSlot {
		p.coreSlot[i].Store(-1)
	}
	return p
}

// newPool carves region into slots of slotBytes each and persists the
// geometry. The caller has already pinned the region into the cache.
func newPool(m *hw.Machine, region hw.Region, part cache.PartitionID, slotBytes uint64, cores int, th *hw.Thread) (*pool, error) {
	p := emptyPool(m, region, part, cores)
	usable := region.Size - poolHeaderBytes
	n := usable / slotBytes
	if n == 0 {
		return nil, fmt.Errorf("core: pool of %d bytes cannot hold a %d-byte sub-MemTable", region.Size, slotBytes)
	}
	var slots []*slot
	off := uint64(poolHeaderBytes)
	for i := uint64(0); i < n; i++ {
		slots = append(slots, newSlot(int(i), region.Addr+off, slotBytes))
		off += slotBytes
	}
	p.setSlots(slots)
	p.persistGeometry(th)
	for _, s := range slots {
		p.writeHdr(th, s, packHdr(0, stateFree, 0))
	}
	return p, nil
}

// persistGeometry writes the slot table so recovery can re-find the slots.
// Caller holds p.mu (or the pool is not yet shared).
func (p *pool) persistGeometry(th *hw.Thread) {
	slots := p.slotList()
	buf := util.PutFixed64(nil, poolHeaderMagic)
	buf = util.PutFixed32(buf, uint32(len(slots)))
	for _, s := range slots {
		buf = util.PutFixed32(buf, uint32(s.addr-p.region.Addr))
		buf = util.PutFixed32(buf, uint32(s.size.Load()))
	}
	if len(buf) > poolHeaderBytes {
		panic("core: pool geometry table overflow")
	}
	p.m.Cache.NTWrite(th.Clock, p.region.Addr, buf)
}

// loadGeometry reads the persisted slot table (crash recovery). Every slot,
// live or parked at size 0 by a merge, keeps its header line inside the pool
// region past the table, and a live one holds at least that line.
func loadGeometry(m *hw.Machine, region hw.Region, part cache.PartitionID, cores int) (*pool, error) {
	hdr := make([]byte, poolHeaderBytes)
	m.PMem.LoadRaw(region.Addr, hdr)
	c := util.NewCursor(hdr)
	if c.U64() != poolHeaderMagic {
		return nil, fmt.Errorf("core: no pool found in region %q: %w", region.Name, util.ErrCorrupt)
	}
	n := c.Count(uint64(c.U32()), 8)
	if n == 0 {
		return nil, fmt.Errorf("core: pool geometry announces no slots, or more than its table holds: %w", util.ErrCorrupt)
	}
	p := emptyPool(m, region, part, cores)
	slots := make([]*slot, n)
	for i := range slots {
		off, size := uint64(c.U32()), uint64(c.U32())
		if off < poolHeaderBytes || size != 0 && size < slotHdrSize || !util.InExtent(off, max(size, slotHdrSize), region.Size) {
			return nil, fmt.Errorf("core: pool geometry: slot %d of %d bytes at offset %d of a %d-byte pool: %w",
				i, size, off, region.Size, util.ErrCorrupt)
		}
		slots[i] = newSlot(i, region.Addr+off, size)
		var word [8]byte
		m.PMem.LoadRaw(slots[i].addr, word[:])
		w := util.NewCursor(word[:])
		slots[i].hdr.Store(w.U64())
	}
	p.setSlots(slots)
	return p, nil
}

// writeHdr updates a slot's packed header both in the authoritative atomic
// and in the persistent cache line, charging the thread one atomic op plus
// the cache store.
func (p *pool) writeHdr(th *hw.Thread, s *slot, word uint64) {
	s.hdr.Store(word)
	var buf [8]byte
	b := util.PutFixed64(buf[:0], word)
	p.m.Cache.Write(th.Clock, s.addr, b, p.partition)
	th.ChargeAtomic()
}

// casHdr performs the paper's single-CAS commit of {counter,state,tail},
// mirroring the new word into the cache on success.
func (p *pool) casHdr(th *hw.Thread, s *slot, old, new uint64) bool {
	if !s.hdr.CompareAndSwap(old, new) {
		return false
	}
	var buf [8]byte
	b := util.PutFixed64(buf[:0], new)
	p.m.Cache.Write(th.Clock, s.addr, b, p.partition)
	th.ChargeAtomic()
	return true
}

// slotFor returns the slot currently assigned to core, or nil.
func (p *pool) slotFor(core int) *slot {
	idx := p.coreSlot[core].Load()
	if idx < 0 {
		return nil
	}
	slots := p.slotList()
	if int(idx) >= len(slots) {
		return nil
	}
	return slots[idx]
}

// acquire assigns a free sub-MemTable to core, blocking (in both real and
// virtual time) until one is available. Waiting time is how write stalls
// surface when the background flush cannot keep up (Exp#5 / Exp#7).
//
// deadlineV bounds the wait on the virtual clock: while no slot frees, each
// retry advances the clock by a capped exponential backoff step, and once it
// passes the deadline the call returns ErrStalled instead of blocking on. A
// zero deadline keeps the legacy wait-forever contract; a nil slot with a nil
// error means the pool aborted (the caller re-checks the engine error).
func (p *pool) acquire(th *hw.Thread, core int, listSeed uint64, deadlineV int64) (*slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var backoff stallBackoff
	for {
		if p.aborted.Load() {
			return nil, nil
		}
		var best *slot
		for _, s := range p.slotList() {
			_, state, _ := unpackHdr(s.hdr.Load())
			if state == stateFree && s.size.Load() > 0 {
				best = s
				break
			}
		}
		if best != nil {
			// Wait out the (virtual) tail of the flush that freed it.
			if fa := best.freeAt.Load(); fa > th.Clock.Now() {
				if deadlineV > 0 && fa > deadlineV {
					return nil, ErrStalled
				}
				th.Clock.AdvanceTo(fa)
			}
			best.syncMu.Lock()
			best.list = skiplist.New(icmp, listSeed)
			best.listCount, best.listTail, best.listMaxSeq = 0, 0, 0
			best.syncMu.Unlock()
			best.filter.Store(newFilter(expectedSlotKeys(best.dataCap()), p.filterBits))
			best.owner.Store(int32(core))
			p.writeHdr(th, best, packHdr(0, stateAllocated, 0))
			p.coreSlot[core].Store(int32(best.idx))
			return best, nil
		}
		// No free sub-MemTable: count the miss and, if the pressure is
		// sustained, let elasticity split free slots next time around.
		p.missCounter.Add(1)
		p.freesSinceMiss.Store(0)
		if p.missCounter.Load() >= missThreshold {
			if p.splitFreeSlotsLocked(th) {
				p.missCounter.Store(0)
				continue
			}
		}
		// If nothing is in flight either, every slot is parked on an idle
		// core — force-rotate the fullest one into the flush pipeline so the
		// pool cannot starve this waiter.
		inflight := false
		var fullest *slot
		var fullestTail uint64
		for _, s := range p.slotList() {
			_, state, tail := unpackHdr(s.hdr.Load())
			switch state {
			case stateImmutable:
				inflight = true
			case stateAllocated:
				if fullest == nil || tail > fullestTail {
					fullest, fullestTail = s, tail
				}
			}
		}
		if !inflight && fullest != nil && p.sealFn != nil {
			if p.forceSealLocked(th, fullest) {
				p.sealFn(th.Clock.Now(), fullest)
				continue
			}
		}
		if deadlineV > 0 && !backoff.step(th, deadlineV) {
			return nil, ErrStalled
		}
		p.cond.Wait()
	}
}

// sealForCore marks a core's slot immutable and detaches it, returning the
// slot for flushing. Returns nil if the core had no allocated slot.
func (p *pool) sealForCore(th *hw.Thread, core int) *slot {
	s := p.slotFor(core)
	if s == nil {
		return nil
	}
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	for {
		old := s.hdr.Load()
		count, state, tail := unpackHdr(old)
		if state != stateAllocated {
			return nil
		}
		if p.casHdr(th, s, old, packHdr(count, stateImmutable, tail)) {
			break
		}
	}
	s.sealedAt.Store(th.Clock.Now())
	p.coreSlot[core].Store(-1)
	s.owner.Store(-1)
	return s
}

// forceSealLocked transitions another core's allocated slot to Immutable and
// detaches it from its owner, after the owner's append in flight, if any,
// has committed. p.mu held.
func (p *pool) forceSealLocked(th *hw.Thread, s *slot) bool {
	s.appendMu.Lock()
	defer s.appendMu.Unlock()
	for {
		old := s.hdr.Load()
		count, state, tail := unpackHdr(old)
		if state != stateAllocated {
			return false
		}
		if p.casHdr(th, s, old, packHdr(count, stateImmutable, tail)) {
			break
		}
	}
	s.sealedAt.Store(th.Clock.Now())
	if owner := s.owner.Load(); owner >= 0 {
		p.coreSlot[owner].CompareAndSwap(int32(s.idx), -1)
	}
	s.owner.Store(-1)
	return true
}

// markFree returns a flushed slot to the pool at virtual completion time
// doneAt and wakes waiters.
func (p *pool) markFree(th *hw.Thread, s *slot, doneAt int64) {
	p.mu.Lock()
	s.freeAt.Store(doneAt)
	p.writeHdr(th, s, packHdr(0, stateFree, 0))
	// Elasticity fires here: misses accumulated while everything was busy
	// split the slot the moment it frees, doubling the supply; conversely a
	// long miss-free stretch merges free neighbours back together, trading
	// parallelism for fewer, cheaper background flushes (Section III-A). A
	// quiet release first decays residual miss pressure.
	switch {
	case p.missCounter.Load() >= missThreshold:
		if p.splitFreeSlotsLocked(th) {
			p.missCounter.Store(0)
			p.freesSinceMiss.Store(0)
		}
	case p.missCounter.Load() > 0:
		p.missCounter.Add(-1)
	case p.freesSinceMiss.Add(1) >= mergeQuietFrees:
		if p.mergeFreeSlotsLocked(th) {
			p.freesSinceMiss.Store(0)
		}
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// splitFreeSlotsLocked halves every free slot above the minimum size,
// doubling the supply of sub-MemTables (the paper's elasticity response to a
// high miss counter). Returns whether anything changed. p.mu held.
func (p *pool) splitFreeSlotsLocked(th *hw.Thread) bool {
	old := p.slotList()
	changed := false
	next := make([]*slot, len(old), len(old)+8)
	copy(next, old)
	for _, s := range old {
		_, state, _ := unpackHdr(s.hdr.Load())
		sz := s.size.Load()
		if state != stateFree || sz/2 < minSlotBytes || sz == 0 {
			continue
		}
		half := sz / 2
		ns := newSlot(len(next), s.addr+half, half)
		s.size.Store(half)
		next = append(next, ns)
		changed = true
	}
	if !changed {
		return false
	}
	p.setSlots(next)
	p.persistGeometry(th)
	for _, s := range next[len(old):] {
		p.writeHdr(th, s, packHdr(0, stateFree, 0))
	}
	return true
}

// mergeFreeSlotsLocked coalesces adjacent free slots pairwise (the inverse
// elasticity move, reducing background flush overhead when pressure is low).
// The emptied buddy keeps size 0 and is skipped by acquire. p.mu held.
func (p *pool) mergeFreeSlotsLocked(th *hw.Thread) bool {
	slots := p.slotList()
	byAddr := make(map[uint64]*slot, len(slots))
	for _, s := range slots {
		if s.size.Load() == 0 {
			continue
		}
		byAddr[s.addr] = s
	}
	changed := false
	for _, s := range slots {
		sz := s.size.Load()
		if sz == 0 || sz*2 > p.maxSize {
			continue
		}
		_, st, _ := unpackHdr(s.hdr.Load())
		if st != stateFree {
			continue
		}
		buddy, ok := byAddr[s.addr+sz]
		if !ok || buddy.size.Load() != sz {
			continue
		}
		_, bst, _ := unpackHdr(buddy.hdr.Load())
		if bst != stateFree {
			continue
		}
		s.size.Store(sz * 2)
		delete(byAddr, buddy.addr)
		buddy.size.Store(0)
		changed = true
	}
	if changed {
		p.persistGeometry(th)
	}
	return changed
}

// snapshotActive appends to dst the slots currently holding data (allocated
// or immutable), for the read path; a Get hands it a stack array.
func (p *pool) snapshotActive(dst []*slot) []*slot {
	for _, s := range p.slotList() {
		_, state, _ := unpackHdr(s.hdr.Load())
		if state == stateAllocated || state == stateImmutable {
			dst = append(dst, s)
		}
	}
	return dst
}

// numSlots returns how many usable slots exist (for stats and tests).
func (p *pool) numSlots() int {
	n := 0
	for _, s := range p.slotList() {
		if s.size.Load() > 0 {
			n++
		}
	}
	return n
}

func icmp(a, b []byte) int {
	return util.CompareInternal(util.InternalKey(a), util.InternalKey(b))
}

// minEntryBytes is the conservative (small) entry-size estimate used to size
// per-table negative filters: 8-byte length header plus an internal key and
// no value, rounded to the 8-byte append alignment.
const minEntryBytes = 48

// expectedSlotKeys estimates how many entries a data region of cap bytes can
// hold, for filter sizing. Overestimating only widens the filter.
func expectedSlotKeys(dataCap uint64) int {
	n := dataCap / minEntryBytes
	if n < 16 {
		n = 16
	}
	return int(n)
}
