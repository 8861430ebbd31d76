package core

import (
	"bytes"
	"errors"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// Sub-skiplist node values are the 8-byte offset of the entry inside the
// owning table's data region; the entry bytes themselves stay in the cache
// (active slots) or the ImmZone (flushed tables). Keeping only offsets in
// DRAM is what saves the cache footprint (Section III-B).

// syncSlot brings a slot's sub-skiplist up to date with its sub-MemTable by
// replaying the data region from listTail to the current tail pointer — the
// paper's synchronization procedure, comparing list counter and table
// counter. Costs are charged to th (a reader performing trigger-1 sync pays
// for it; the background index thread pays on its own clock otherwise).
// Returns the number of entries applied.
func (e *Engine) syncSlot(th *hw.Thread, s *slot) int {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	// The header must be read under the same syncMu section as the list
	// state: a header loaded before the lock can belong to a previous
	// incarnation of the slot (sealed, flushed, freed, and re-acquired while
	// this thread was descheduled). Replaying a stale count/tail against the
	// new incarnation would index leftover bytes of the old table past the
	// new commit point — entries the writer then overwrites, leaving the
	// sub-skiplist pointing one key at another key's bytes — and the inflated
	// listCount would make the final pre-flush sync stop early, dropping the
	// table's tail entries from the index.
	count, _, tail := unpackHdr(s.hdr.Load())
	if s.list == nil || s.listCount >= count {
		return 0
	}
	applied := 0
	// Bulk sequential index building keeps the skiplist's upper levels hot in
	// the private caches: cheaper per hop than a cold lookup.
	charge := func(visits int) {
		th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 16)
	}
	for s.listCount < count && s.listTail < tail {
		off := s.listTail
		// fetchEntry reads each of the entry's lines once, the header's with
		// the rest of its line.
		ent, ok := e.fetchEntry(th, &s.entryBuf, s.dataAddr(), off, tail, e.poolPart)
		if !ok {
			break // torn tail; the committed counter should prevent this
		}
		s.index(ent, off, charge)
		s.listTail = align8(s.listTail + uint64(ent.Len))
		s.listCount++
		applied++
	}
	return applied
}

// index adds the entry stored at data offset off to the sub-skiplist, which
// copies the key and the offset it is handed; syncMu held.
func (s *slot) index(ent kvstore.Entry, off uint64, charge skiplist.ChargeFunc) {
	var val [8]byte
	s.ikeyBuf = ent.InternalKey(s.ikeyBuf)
	s.list.Insert(s.ikeyBuf, util.PutFixed64(val[:0], off), charge)
	s.listMaxSeq = max(s.listMaxSeq, ent.Seq())
}

// needsSync reports whether the slot's sub-skiplist lags its table counter.
func needsSync(s *slot) bool {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	count, _, _ := unpackHdr(s.hdr.Load())
	return s.list != nil && s.listCount < count
}

// cacheLine is the LLC's line size, the unit fetchEntry sizes its reads by.
const cacheLine = 64

// fetchEntry reads the entry stored at off within a data region of limit
// bytes starting at base, through the cache under partition part, into *buf
// (grown as needed), and returns a view of it: valid until *buf is next
// written. The bounds check runs before the length header is trusted: a scan
// or get racing a flush may hold a sub-skiplist whose table bytes were
// recycled, and the torn header must not drive an unbounded read (the CRC
// inside ViewEntry then rejects any in-bounds torn payload, so a stale entry
// is skipped, never fabricated).
//
// No cache line is read twice: the first read takes the 8 B header together
// with the rest of its line (of the next line too, when the header straddles
// into it), and the second only what the entry has beyond that, starting on a
// line boundary.
func (e *Engine) fetchEntry(th *hw.Thread, buf *[]byte, base, off, limit uint64, part cache.PartitionID) (kvstore.Entry, bool) {
	if off >= limit || limit-off < 8 {
		return kvstore.Entry{}, false
	}
	addr := base + off
	n := cacheLine - addr%cacheLine
	if n < 8 {
		n += cacheLine
	}
	if n > limit-off {
		n = limit - off
	}
	var head [2 * cacheLine]byte
	e.m.Cache.Read(th.Clock, addr, head[:n], part)
	blen := uint64(util.Fixed32(head[:]))
	if blen == 0 || blen > limit-off-8 {
		return kvstore.Entry{}, false
	}
	b := util.Sized(*buf, int(8+blen))
	*buf = b
	if n = uint64(copy(b, head[:n])); n < uint64(len(b)) {
		e.m.Cache.Read(th.Clock, addr+n, b[n:], part)
	}
	ent, err := kvstore.ViewEntry(b)
	return ent, err == nil
}

// searchList looks ukey up (at or below seq) in one sub-skiplist, resolving
// the stored offset against base. Node visits are charged at DRAM latency —
// the point of keeping sub-skiplists in DRAM — to hw.PhaseIndex. The value is
// a view into the thread's scratch: the caller copies it before the thread's
// next fetch.
func (e *Engine) searchList(th *hw.Thread, list *skiplist.List, base, limit uint64, part cache.PartitionID, ukey []byte, seq uint64) (value []byte, foundSeq uint64, kind util.ValueKind, ok bool) {
	if list == nil {
		return nil, 0, 0, false
	}
	target := util.MakeInternalKey(th.Scratch.Key, ukey, seq, util.KindValue)
	th.Scratch.Key = target
	it := list.NewIterator()
	th.InPhase(hw.PhaseIndex, func() {
		it.Seek(target, func(visits int) {
			th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 8)
		})
	})
	if !it.Valid() {
		return nil, 0, 0, false
	}
	found := util.InternalKey(it.Key())
	if string(found.UserKey()) != string(ukey) {
		return nil, 0, 0, false
	}
	off := util.Fixed64(it.Value())
	ent, okFetch := e.fetchEntry(th, &th.Scratch.Entry, base, off, limit, part)
	// The fetched entry must carry the exact internal key the index node
	// promised: a table recycled under a stale list reference can hold a
	// boundary-aligned foreign entry at this offset whose CRC is perfectly
	// valid, and returning its value would serve another key's bytes.
	if !okFetch || !ent.Is(found) {
		return nil, 0, 0, false
	}
	return ent.Value, found.Seq(), found.Kind(), true
}

// tableIter adapts (sub-skiplist, data base address) to lsm.Iterator,
// decoding entry bytes lazily. It serves scans over active slots and imm
// tables, and feeds the L0 spill.
type tableIter struct {
	e     *Engine
	th    *hw.Thread
	it    skiplist.Iterator
	base  uint64
	limit uint64 // data-region bytes at base; fetches past it are stale
	part  cache.PartitionID
	buf   []byte // the current entry's bytes; reused as the iterator moves
	val   []byte
	ok    bool
	err   error // errStaleTable once an entry failed its fetch check
}

// errStaleTable ends a tableIter whose table's bytes were recycled under it.
var errStaleTable = errors.New("core: a scanned table was recycled under the scan")

func (t *tableIter) load() {
	t.ok = false
	if !t.it.Valid() {
		return
	}
	off := util.Fixed64(t.it.Value())
	ent, ok := t.e.fetchEntry(t.th, &t.buf, t.base, off, t.limit, t.part)
	// Same stale-table defence as searchList: only a fetch that returns the
	// indexed internal key verbatim is trusted.
	if !ok || !ent.Is(t.it.Key()) {
		t.err = errStaleTable
		return
	}
	t.val = ent.Value
	t.ok = true
}

// Valid reports whether the iterator is on an entry.
func (t *tableIter) Valid() bool { return t.ok }

// SeekToFirst positions at the table's smallest internal key.
func (t *tableIter) SeekToFirst() { t.it.SeekToFirst(); t.load() }

// Seek positions at the first entry >= ik.
func (t *tableIter) Seek(ik util.InternalKey) { t.it.Seek(ik, nil); t.load() }

// Next advances the iterator.
func (t *tableIter) Next() { t.it.Next(); t.load() }

// Key returns the current internal key.
func (t *tableIter) Key() util.InternalKey { return util.InternalKey(t.it.Key()) }

// Value returns the current value bytes; valid until the iterator moves.
func (t *tableIter) Value() []byte { return t.val }

// Err is errStaleTable once an entry failed its fetch check: a flushed slot
// or a spilled ImmZone holds another table now.
func (t *tableIter) Err() error { return t.err }

// Close is a no-op; the iterator borrows nothing.
func (t *tableIter) Close() {}

var _ lsm.Iterator = (*tableIter)(nil)

// snapIter walks a sub-skiplist whose entry bytes were bulk-read into a DRAM
// snapshot; the spill merge uses it so its reads are one sequential pass
// instead of per-entry media accesses.
type snapIter struct {
	it   *skiplist.Iterator
	snap []byte
	val  []byte
	ok   bool
}

func (e *Engine) newSnapIter(list *skiplist.List, snap []byte) *snapIter {
	return &snapIter{it: list.NewIterator(), snap: snap}
}

func (t *snapIter) load() {
	t.ok = false
	if !t.it.Valid() {
		return
	}
	off := util.Fixed64(t.it.Value())
	if off >= uint64(len(t.snap)) {
		return
	}
	ent, err := kvstore.ViewEntry(t.snap[off:])
	if err != nil {
		return
	}
	t.val = ent.Value
	t.ok = true
}

// Valid reports whether the iterator is on an entry.
func (t *snapIter) Valid() bool { return t.ok }

// SeekToFirst positions at the table's smallest internal key.
func (t *snapIter) SeekToFirst() { t.it.SeekToFirst(); t.load() }

// Seek positions at the first entry >= ik.
func (t *snapIter) Seek(ik util.InternalKey) { t.it.Seek(ik, nil); t.load() }

// Next advances the iterator.
func (t *snapIter) Next() { t.it.Next(); t.load() }

// Key returns the current internal key.
func (t *snapIter) Key() util.InternalKey { return util.InternalKey(t.it.Key()) }

// Value returns the current value bytes, inside the snapshot.
func (t *snapIter) Value() []byte { return t.val }

// Err is always nil: the snapshot is the spill's own copy.
func (t *snapIter) Err() error { return nil }

// Close is a no-op; the iterator borrows nothing.
func (t *snapIter) Close() {}

var _ lsm.Iterator = (*snapIter)(nil)

// mergeInto folds flushed tables' sub-skiplists into the global index,
// keeping only the freshest version per user key — the sub-skiplist
// compaction of Section III-D, which removes invalid nodes so that a later
// read probes one index instead of one per table. Each sub-skiplist is walked
// in internal-key order, so a key's first node in a table is its freshest
// there, and only that one is upserted: the index takes a version only over a
// lower sequence, so the tables may come in any order and, on identical
// internal keys (one table recovered from both its ImmZone copy and its slot),
// the earlier table wins. Charged to th — the index thread's clock, or
// recovery's — at the bulk-build rate: one visit per source node and one per
// line the index touches.
func (e *Engine) mergeInto(th *hw.Thread, x *hashIndex, tables []*immTable) {
	visits := 0
	var it skiplist.Iterator
	for _, t := range tables {
		t.list.ResetIterator(&it)
		var last []byte // user key of the previous node (non-nil even when empty)
		for it.SeekToFirst(); it.Valid(); it.Next() {
			visits++
			ik := util.InternalKey(it.Key())
			if ukey := ik.UserKey(); last == nil || !bytes.Equal(ukey, last) {
				last = ukey
				visits += x.upsert(ukey, ik.Trailer(), t.base+util.Fixed64(it.Value()))
			}
		}
	}
	th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 16)
}
