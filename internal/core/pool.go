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
//     sub-ImmMemTables into the PMem ImmZone (Section III-C), the registry
//     of flushed tables, and the L0 spill into the LSM tree;
//   - engine.go: the kvstore.DB surface, background threads, and crash
//     recovery (Section III-E);
//   - activetable.go: the active-key table, the memory component's one
//     index, which a Get probes instead of every active sub-MemTable and
//     every flushed table (Section III-D's global index, built as a hash
//     table entered at each write: an extension of the paper's design).
package core

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
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

	// gen counts the slot's incarnations: acquire starts a new one, and the
	// active-key table's entries name the incarnation they were written in.
	gen atomic.Uint32
	// unplaced marks an incarnation holding a version the active-key table
	// had no room for (activeTable.unplaced counts the marked slots).
	unplaced atomic.Bool

	owner    atomic.Int32 // core the slot is assigned to (-1 when free)
	sealedAt atomic.Int64 // virtual time the slot became immutable
	freeAt   atomic.Int64 // virtual time its copy-based flush completes
	// indexDoneV is when the index thread finished the final sync (queueSealed).
	indexDoneV int64
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

	mu    sync.Mutex
	cond  *sync.Cond
	slots atomic.Pointer[[]*slot]
	// maxSize is the configured sub-MemTable size, the largest a merge
	// makes a slot (newPool's slotBytes; the engine sets it on a recovered
	// pool).
	maxSize uint64

	// Global metadata structure (kept in DRAM per Section III-A): index of
	// the sub-MemTable assigned to each core.
	coreSlot []atomic.Int32 // slot index per core, -1 = none

	// Elasticity's state (Section III-A), under mu: misses and hits are the
	// running verdicts of acquire, splits and merges count the geometry
	// changes for the registry.
	misses, hits   int
	splits, merges atomic.Int64

	// sealFn is installed by the engine (Engine.queueSealed): it queues a slot
	// force-sealed at virtual time at for its copy-based flush. Called with
	// p.mu held; must not block.
	sealFn func(at int64, s *slot)

	// aborted is set when the engine fails: acquire stops blocking and
	// returns nil so callers can surface the error instead of hanging.
	aborted atomic.Bool

	// flushServers is the engine's flush server count, which splits a
	// table's flush and so sets flushFloor (installed by the engine).
	flushServers int
}

const poolHeaderMagic = 0xCAC4EC001

// missThreshold is how many allocation misses split the free sub-MemTables;
// mergeHits is how many hits past the last miss signal a pool with slots to
// spare, worth coalescing back.
const (
	missThreshold = 8
	mergeHits     = 8
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
	p.maxSize = slotBytes
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
// Every choice reads the caller's virtual clock, never how far the host's
// flush worker has got. A free slot whose flush ended by now is taken at once:
// of those, the one freed last, its lines the warmest (a hit). Otherwise the
// caller takes the slot that frees first and advances to it (a miss). A flush
// still in flight has not booked its end, so before either choice the caller
// waits on the host for every flush that could end early enough to change it
// (flushFloor): by now for a hit, by the first free slot's end for a miss.
// Elasticity runs here, on that verdict, before the caller picks:
// missThreshold misses split the free slots — once every flush of a slot wide
// enough to halve has booked, so that which slots split does not depend on
// the host — and mergeHits
// hits, once residual misses have decayed, merge buddies free by now back
// towards the configured size.
//
// deadlineV bounds the wait on the virtual clock: a slot that frees past it
// returns ErrStalled, and while no slot is free at all each retry advances the
// clock by a capped exponential backoff step until it passes the deadline. A
// zero deadline waits forever; a nil slot with a nil error means the pool
// aborted (the caller re-checks the engine error).
func (p *pool) acquire(th *hw.Thread, core int, listSeed uint64, deadlineV int64) (*slot, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	var backoff stallBackoff
	for {
		if p.aborted.Load() {
			return nil, nil
		}
		now := th.Clock.Now()
		c := p.candidatesLocked(now)
		if c.warm != nil && c.floor > now {
			if p.hitLocked(th, now) {
				c = p.candidatesLocked(now) // a merge joins slots free by now only
			}
			s := c.warm
			if p.hits >= mergeHits {
				// Merges are due but no buddies are free together: take the
				// largest slot and let the small ones drain, or one writer
				// ping-pongs between two halves and never frees both.
				s = c.roomiest
			}
			p.assignLocked(th, s, core, listSeed)
			return s, nil
		}
		splitDue := p.misses+1 >= missThreshold
		if c.warm == nil && c.first != nil && c.floor > c.first.freeAt.Load() && !(splitDue && c.inflightWide) {
			// A miss. A split keeps first as its lower half, freeing when it
			// did.
			p.missLocked(th)
			fa := c.first.freeAt.Load()
			if deadlineV > 0 && fa > deadlineV {
				return nil, ErrStalled
			}
			th.Clock.AdvanceTo(fa)
			p.assignLocked(th, c.first, core, listSeed)
			return c.first, nil
		}
		if c.first == nil && c.warm == nil {
			// No free sub-MemTable. If nothing is in flight either, every
			// slot is parked on an idle core — force-rotate the fullest one
			// into the flush pipeline so the pool cannot starve this waiter.
			if !c.inflight && c.fullest != nil && p.sealFn != nil && p.seal(th, c.fullest) {
				p.sealFn(th.Clock.Now(), c.fullest)
				continue
			}
			if deadlineV > 0 && !backoff.step(th, deadlineV) {
				return nil, ErrStalled
			}
		}
		p.cond.Wait()
	}
}

// candidates is what acquire chooses from at one virtual instant.
type candidates struct {
	warm         *slot // of the slots free by then, the one freed last
	roomiest     *slot // of the slots free by then, the largest (ties: freed last)
	first        *slot // of the slots free later, the one that frees first
	fullest      *slot // the allocated slot with the most data
	inflight     bool  // a sealed slot's flush has not booked its end yet
	inflightWide bool  // and that slot could halve once free
	floor        int64 // the earliest such a flush can end (MaxInt64: none)
}

// candidatesLocked scans the slots at virtual time now. Ties go to the
// lowest index. p.mu held.
func (p *pool) candidatesLocked(now int64) candidates {
	c := candidates{floor: math.MaxInt64}
	var fullestTail uint64
	for _, s := range p.slotList() {
		_, state, tail := unpackHdr(s.hdr.Load())
		fa := s.freeAt.Load()
		switch {
		case state == stateImmutable:
			c.inflight = true
			c.inflightWide = c.inflightWide || s.size.Load()/2 >= minSlotBytes
			c.floor = min(c.floor, flushFloor(p.m.Costs, s.sealedAt.Load(), tail, p.flushServers))
		case state == stateAllocated:
			if c.fullest == nil || tail > fullestTail {
				c.fullest, fullestTail = s, tail
			}
		case s.size.Load() == 0: // parked by a merge
		case fa <= now:
			if c.warm == nil || fa > c.warm.freeAt.Load() {
				c.warm = s
			}
			if r := c.roomiest; r == nil || s.size.Load() > r.size.Load() || s.size.Load() == r.size.Load() && fa > r.freeAt.Load() {
				c.roomiest = s
			}
		default:
			if c.first == nil || fa < c.first.freeAt.Load() {
				c.first = s
			}
		}
	}
	return c
}

// flushFloor is the earliest virtual time the flush of a slot sealed at
// sealedAt with tail bytes, at servers flush servers, can free it: each
// extent of flushOne's split (splitFlush) charges at least the fixed dispatch
// cost and the per-KiB packing of its bytes, its server starts it no earlier
// than the seal, and the slot frees at the last extent's end — so no earlier
// than the largest extent's floor. An empty slot may be freed at once
// (FlushAll frees it without a flush).
func flushFloor(c *sim.CostModel, sealedAt int64, tail uint64, servers int) int64 {
	if tail == 0 {
		return sealedAt
	}
	return sealedAt + c.FlushFixed + int64(splitFlush(tail, servers, immZoneHdrSize).largest())*c.FlushBytePerKB/1024
}

// assignLocked hands the free slot s to core: a fresh sub-skiplist, a new
// incarnation, the header allocated, the core's mapping. p.mu held.
func (p *pool) assignLocked(th *hw.Thread, s *slot, core int, listSeed uint64) {
	s.syncMu.Lock()
	s.list = skiplist.New(icmp, listSeed)
	s.listCount, s.listTail, s.listMaxSeq = 0, 0, 0
	s.syncMu.Unlock()
	s.gen.Add(1)
	s.owner.Store(int32(core))
	p.writeHdr(th, s, packHdr(0, stateAllocated, 0))
	p.coreSlot[core].Store(int32(s.idx))
}

// sealForCore seals core's slot (seal) and returns it for flushing, or nil if
// the core had no allocated slot.
func (p *pool) sealForCore(th *hw.Thread, core int) *slot {
	if s := p.slotFor(core); s != nil && p.seal(th, s) {
		return s
	}
	return nil
}

// seal transitions an allocated slot to Immutable and detaches it from its
// owner, after the owner's append in flight, if any, has committed. It
// reports false if s was not allocated.
func (p *pool) seal(th *hw.Thread, s *slot) bool {
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
// doneAt and wakes the waiters; what they take is acquire's choice.
func (p *pool) markFree(th *hw.Thread, s *slot, doneAt int64) {
	p.mu.Lock()
	s.freeAt.Store(doneAt)
	p.writeHdr(th, s, packHdr(0, stateFree, 0))
	p.cond.Broadcast()
	p.mu.Unlock()
}

// missLocked counts an acquire that waits virtually for its slot; at
// missThreshold the misses split the free slots, doubling the supply (the
// paper's response to a high miss counter). The counter saturates there while
// no slot can halve, so pressure that outlasts the smallest slots leaves at
// most missThreshold misses for hits to decay. p.mu held.
func (p *pool) missLocked(th *hw.Thread) {
	p.hits = 0
	p.misses = min(p.misses+1, missThreshold)
	if p.misses == missThreshold && p.splitFreeSlotsLocked(th) {
		p.misses = 0
	}
}

// hitLocked counts an acquire that found a slot free by now. A hit first
// decays residual misses; mergeHits hits past them merge the buddies free by
// now, trading parallelism for fewer, cheaper background flushes once the
// pressure has passed (Section III-A). Reports whether a merge changed the
// slots. p.mu held.
func (p *pool) hitLocked(th *hw.Thread, now int64) bool {
	if p.misses > 0 {
		p.misses--
		return false
	}
	if p.hits++; p.hits < mergeHits || !p.mergeFreeSlotsLocked(th, now) {
		return false
	}
	p.hits = 0
	return true
}

// splitFreeSlotsLocked halves every free slot above the minimum size. Both
// halves keep the slot's freeAt: neither is free before its flush ended. The
// upper half reuses the slot a merge parked at its address, if any, so the
// geometry table does not grow with every split-merge cycle. Returns whether
// anything changed. p.mu held.
func (p *pool) splitFreeSlotsLocked(th *hw.Thread) bool {
	old := p.slotList()
	parked := make(map[uint64]*slot)
	for _, s := range old {
		if s.size.Load() == 0 {
			parked[s.addr] = s
		}
	}
	next := slices.Clip(old)
	var halves []*slot
	for _, s := range old {
		_, state, _ := unpackHdr(s.hdr.Load())
		sz := s.size.Load()
		if state != stateFree || sz/2 < minSlotBytes || sz == 0 {
			continue
		}
		half := sz / 2
		ns := parked[s.addr+half]
		if ns == nil {
			ns = newSlot(len(next), s.addr+half, 0)
			next = append(next, ns) // a copy: old is clipped
		}
		ns.freeAt.Store(s.freeAt.Load())
		ns.size.Store(half)
		s.size.Store(half)
		halves = append(halves, ns)
	}
	if len(halves) == 0 {
		return false
	}
	p.setSlots(next)
	p.persistGeometry(th)
	for _, s := range halves {
		p.writeHdr(th, s, packHdr(0, stateFree, 0))
	}
	p.splits.Add(1)
	return true
}

// mergeFreeSlotsLocked coalesces buddies free by virtual time now pairwise —
// a slot whose offset is a multiple of twice its size with the same-sized
// slot right after it — up to the configured slot size, so a merge undoes a
// split and never grows a slot past what the store was opened with. The
// merged slot frees when the later of the two did; the emptied buddy is
// parked at size 0, skipped by acquire until a split reuses it. p.mu held.
func (p *pool) mergeFreeSlotsLocked(th *hw.Thread, now int64) bool {
	slots := p.slotList()
	byAddr := make(map[uint64]*slot, len(slots))
	for _, s := range slots {
		if s.size.Load() > 0 {
			byAddr[s.addr] = s
		}
	}
	free := func(s *slot) bool {
		_, st, _ := unpackHdr(s.hdr.Load())
		return st == stateFree && s.freeAt.Load() <= now
	}
	changed := false
	for _, s := range slots {
		sz := s.size.Load()
		if sz == 0 || sz*2 > p.maxSize || (s.addr-p.region.Addr-poolHeaderBytes)%(sz*2) != 0 || !free(s) {
			continue
		}
		buddy, ok := byAddr[s.addr+sz]
		if !ok || buddy.size.Load() != sz || !free(buddy) {
			continue
		}
		s.size.Store(sz * 2)
		s.freeAt.Store(max(s.freeAt.Load(), buddy.freeAt.Load()))
		delete(byAddr, buddy.addr)
		buddy.size.Store(0)
		changed = true
	}
	if changed {
		p.persistGeometry(th)
		p.merges.Add(1)
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

// minEntryBytes is the conservative (small) entry-size estimate the
// active-key table is sized by: 8-byte length header plus an internal key and
// no value, rounded to the 8-byte append alignment. A pool of smaller entries
// overflows a key's window now and then, and its Gets then search the slots.
const minEntryBytes = 48

// activeEntries is how many entries the active-key table is sized for: one
// per minEntryBytes of the pool and, when its entries outlive the flush
// (SkiplistCompaction), of the ImmZone too.
func activeEntries(o Options) int {
	n := o.PoolBytes
	if o.SkiplistCompaction {
		n += o.ImmZoneBytes
	}
	return int(n / minEntryBytes)
}
