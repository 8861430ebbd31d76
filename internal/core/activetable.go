package core

import (
	"runtime"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// The active-key table is the memory component's one index: it maps a user
// key to its newest version in each slot incarnation the memory component
// holds — an active sub-MemTable (allocated or sealed, not yet freed), or the
// ImmZone table a flush copied it into — by the version's trailer and a ref
// naming the incarnation and the entry's offset in its data region. A Get
// probes it instead of every writing core's slot and every flushed table's
// sub-skiplist (Engine.probeActive), so the memory component costs a Get one
// bucket line however many cores write and however many tables are flushed,
// and no lazy sync or sub-skiplist search when the key is there. The paper's
// read path probes one index for the memory component as well (Section
// III-C/D); building it of hash lines entered at the write, not of a global
// skiplist merged at the flush, is this implementation's.
//
// It is built of 64 B lines (bucket), sized once at open for the most entries
// the pool and the ImmZone can hold, and never grows. An entry lies in its
// key's home line or in one of the activeReach lines after it, in the first
// slot a writer found free or dead, and records how far from home it lies.
// The 4 bits past the home line's version (its reach) flag the lines after it
// that an entry homed there was ever written to, so a probe reads the home
// line and only the lines it flags: one line, unless four live entries filled
// the home line at once. A writer holds the key's home line for the whole
// upsert, so that the writers of a line take turns, and locks the line it
// writes too; holding a line, it never waits for another, but lets go and
// starts over.
//
// An entry outlives its slot's flush: flushOne copies the slot byte for byte,
// so the entry's (slot, incarnation, offset) still names its version, at the
// same offset of the table's data region. The rules a Get's conclusions rest
// on:
//   - Liveness. An entry is live while its incarnation is active or is
//     registered in the memory component (memState.table), and dead once the
//     spill retires that table — or, with SkiplistCompaction off, once the
//     slot is freed. A dead entry's versions lie where the later steps of a
//     Get look: in the tree, which the spill wrote them to before it retired
//     their table (or in the ImmZone table the flush registered before it
//     freed the slot). A writer may reuse a dead entry's slot.
//   - Own entries. A writer replaces its own incarnation's entry of the key's
//     fingerprint and tag in place at an equal or higher sequence and leaves
//     it otherwise, so each live incarnation holding a version of a key holds
//     an entry of its fingerprint and tag at that version's sequence or
//     higher, unless an incarnation that outlives it took the entry over (the
//     twin rule). A key whose fingerprint and tag are another's (one in 2^21
//     within a home line) shares that entry, so a probe whose newest live
//     entry holds another key cannot answer.
//   - Hot keys (the twin rule). A writer with no entry of its own may take
//     over a registered incarnation's entry of the key's fingerprint and tag
//     when its sequence is higher, and never takes over an active
//     incarnation's. The spill retires every registered table at once, so the
//     taker outlives the entry it replaced. Without the rule a key written
//     into a table after table would keep an entry in each until the spill,
//     and overflow its reach.
//   - Unplaced versions. An entry no line in reach had room for marks its
//     slot; the mark moves to the slot's table at the flush and clears when
//     the spill retires it, and while any incarnation is marked (unplaced > 0)
//     no probe is trusted.
//   - Fallback. A probe that cannot answer leaves the Get to search every
//     active slot and every registered table's sub-skiplist, the path a Get
//     takes with SkiplistCompaction off (the ablation rows, whose entries die
//     at the flush).
//   - Recovery enters every recovered ImmZone table in seal order, then every
//     recovered sealed slot. A recovered table has no slot incarnation: it is
//     named past the slot indices a pool can have (recoveredName).
//
// So while every live entry of a key's fingerprint and tag lies at or below a
// Get's snapshot, the newest of them, if it holds the key, is the key's newest
// version in the memory component.
type activeTable struct {
	hash    func([]byte) uint64 // seededHash; a test may stub it
	buckets []bucket
	mask    uint64
	// unplaced counts the active slot incarnations (slot.unplaced) and the
	// registered tables (immTable.unplaced) holding a version left out of
	// the table.
	unplaced atomic.Int64
}

// bucket is one 64 B line of four slots. Word 0 holds the line's version in
// its low 12 bits — odd while a writer holds the line, bumped again when it
// is done, so a reader that saw the same even version before and after
// copying the line saw no torn slot — then 4 bits of reach (activeVer), and
// the slots' 12-bit fingerprints above them (0: free). A reader stalled
// across 2^11 changes of its line would not notice a torn slot; a torn
// (trailer, address) pair could make a Get take one entry's trailer for
// another's. Words 1–4 are the slots' trailers, and words 5–7 their 48-bit
// address words, packed (storeEntry).
type bucket [8]atomic.Uint64

const (
	bucketSlots = 4
	minBuckets  = 16
	fpBits      = 12
	fpMask      = 1<<fpBits - 1
	addrMask    = 1<<48 - 1
	tableSeed   = 0xC0117EC7
)

// seededHash is the table's hash: util.Hash64 under a fixed seed.
func seededHash(key []byte) uint64 { return util.Mix64(util.Hash64(key) ^ tableSeed) }

// fingerprint is a key's tag in its line, never the free mark 0.
func fingerprint(h uint64) uint64 { return max(h>>(64-fpBits), 1) }

// slotAt returns slot s of a copied line: its fingerprint (0: free), trailer
// word and address word.
func slotAt(w *[8]uint64, s int) (fp, trailer, addr uint64) {
	i, o := 5+48*s/64, 48*s%64
	addr = w[i] >> o
	if o > 16 {
		addr |= w[i+1] << (64 - o)
	}
	return w[0] >> (16 + fpBits*s) & fpMask, w[1+s], addr & addrMask
}

// read copies the line into w, again until no write overlapped the copy.
func (b *bucket) read(w *[8]uint64) {
	for !b.tryRead(w) {
		runtime.Gosched() // a writer holds the line
	}
}

// tryRead is read's one attempt: it reports whether no write overlapped it.
func (b *bucket) tryRead(w *[8]uint64) bool {
	b.copyTo(w)
	return w[0]&1 == 0 && b[0].Load() == w[0]
}

// copyTo loads the line's words into w as they are: whole only while the
// caller holds the line.
func (b *bucket) copyTo(w *[8]uint64) {
	for j := range w {
		w[j] = b[j].Load()
	}
}

// lock takes the line for one writer: a CAS moves its version from even to
// odd, so that writers of several cores share a table, and readers retry
// until it is even again. It returns word 0 as locked.
func (b *bucket) lock() uint64 {
	for {
		if w0, ok := b.tryLock(); ok {
			return w0
		}
		runtime.Gosched()
	}
}

// tryLock is lock's one attempt; it fails while another writer holds the line.
func (b *bucket) tryLock() (uint64, bool) {
	w0 := b[0].Load()
	return w0 + 1, w0&1 == 0 && b[0].CompareAndSwap(w0, w0+1)
}

// put writes slot s of a line the caller locked with word 0 at w0, and returns
// word 0 as it now stands.
func (b *bucket) put(w0 uint64, s int, fp, trailer, addr uint64) uint64 {
	b[1+s].Store(trailer)
	i, o := 5+48*s/64, 48*s%64
	b[i].Store(b[i].Load()&^(addrMask<<o) | addr<<o)
	if o > 16 {
		b[i+1].Store(b[i+1].Load()&^(addrMask>>(64-o)) | addr>>(64-o))
	}
	w0 = w0&^(fpMask<<(16+fpBits*s)) | fp<<(16+fpBits*s)
	b[0].Store(w0)
	return w0
}

// unlock publishes the caller's changes: the version, the bits of word 0 that
// ver masks, moves on to even.
func (b *bucket) unlock(w0, ver uint64) { b[0].Store(w0&^ver | (w0+1)&ver) }

// activeReach is how many lines past its home a key's entry may lie: one
// spare bit of the home line each.
const activeReach = 4

// A ref names an entry: its data offset (the tail's 24 bits), its slot's
// index (a pool's geometry table holds at most 510 slots) and the low bits
// of the slot's incarnation. A flushed table keeps its slot incarnation's
// name (immTable.name), the ref without the offset.
const (
	refIdxBits = 10
	refGenBits = 11
	refGenMask = 1<<refGenBits - 1
	// recoveredIdx is the first slot index of recoveredName's, past any
	// slot a pool's geometry table holds.
	recoveredIdx = 1 << (refIdxBits - 1)
)

func activeRef(idx int, gen uint32, off uint64) uint64 {
	return off | uint64(idx)<<tailBits | uint64(gen&refGenMask)<<(tailBits+refIdxBits)
}

func unpackActiveRef(ref uint64) (idx int, gen uint32, off uint64) {
	return int(ref >> tailBits & (1<<refIdxBits - 1)), uint32(ref >> (tailBits + refIdxBits)), ref & tailMask
}

// incarnationName is the name of slot idx's incarnation gen: its refs
// without the offset.
func incarnationName(idx int, gen uint32) uint64 { return activeRef(idx, gen, 0) >> tailBits }

// recoveredName names the i-th ImmZone table recovery registers, which has no
// slot incarnation: a slot index no pool has, so that no live slot's entries
// are taken for the table's.
func recoveredName(i int) uint64 {
	const names = 1<<refIdxBits - recoveredIdx
	return incarnationName(recoveredIdx+i%names, uint32(i/names))
}

// An entry also carries 9 bits of its key's hash past the fingerprint's (its
// tag), so that a probe fetches, or a writer replaces, another key's entry
// only once in 2^21, and how many lines past its home it lies. They fill what
// the slot's two words leave over: the trailer's kind byte holds a kind below
// 4 and 6 tag bits, and the 48 address bits hold the ref with its offset in
// 8-byte units (entries are 8-byte aligned), the distance and the other 3 tag
// bits.
const (
	tagBits    = 9
	kindMask   = 3
	storedDist = 21 // bit of the distance in a stored ref; below it the offset / 8
	storedIdx  = storedDist + 3
	storedTag  = storedIdx + refIdxBits
	storedGen  = storedTag + 3
)

// tagOf returns the tag of the key hashing to h.
func tagOf(h uint64) uint64 { return h >> (64 - fpBits - tagBits) & (1<<tagBits - 1) }

// storeEntry packs an entry into a slot's trailer and address words.
func storeEntry(trailer, ref uint64, dist int, tag uint64) (tw, aw uint64) {
	idx, gen, off := unpackActiveRef(ref)
	tw = trailer&^0xFF | tag&0x3F<<2 | trailer&kindMask
	aw = off>>3 | uint64(dist)<<storedDist | uint64(idx)<<storedIdx | tag>>6<<storedTag | uint64(gen)<<storedGen
	return tw, aw
}

// loadEntry undoes storeEntry.
func loadEntry(tw, aw uint64) (trailer, ref uint64, dist int, tag uint64) {
	ref = activeRef(int(aw>>storedIdx&(1<<refIdxBits-1)), uint32(aw>>storedGen), (aw&(1<<storedDist-1))<<3)
	tag = tw>>2&0x3F | aw>>storedTag&7<<6
	return tw&^0xFF | tw&kindMask, ref, int(aw >> storedDist & 7), tag
}

// activeVer masks a line's version in word 0: its low 12 bits, and the 4
// bits past them hold the line's reach.
const (
	activeVer  = 1<<reachShift - 1
	reachShift = 12
)

// reachOf reads a home line's reach from its word 0: bit d-1 flags line d.
func reachOf(w0 uint64) uint64 { return w0 >> reachShift & (1<<activeReach - 1) }

// newActiveTable returns an empty table with a slot for each of entries. It
// writes one word of every 4 KiB page of the table, in order, so that the host
// maps them in here: writers touching them first, in hash order, made the
// Puts that load a fresh store a third slower on the host.
func newActiveTable(entries int) *activeTable {
	nb := minBuckets
	for bucketSlots*nb < entries {
		nb *= 2
	}
	t := &activeTable{hash: seededHash, buckets: make([]bucket, nb), mask: uint64(nb - 1)}
	for i := 0; i < nb; i += 4096 / cacheLine {
		t.buckets[i][0].Store(0)
	}
	return t
}

// get calls visit with the trailer and ref of every entry homed at the home
// line of the key hashing to h that carries the key's fingerprint and tag,
// home line first, while visit returns true. It calls line once for every
// line it reads.
func (t *activeTable) get(h uint64, line func(), visit func(trailer, ref uint64) bool) {
	fp, tag := fingerprint(h), tagOf(h)
	var reach uint64 = 1
	for d := 0; reach != 0; d++ {
		if reach&1 != 0 {
			line()
			var w [8]uint64
			t.buckets[(h+uint64(d))&t.mask].read(&w)
			if d == 0 {
				reach = reachOf(w[0])<<1 | 1
			}
			for s := range bucketSlots {
				f, tw, aw := slotAt(&w, s)
				if f != fp {
					continue
				}
				if tr, ref, dist, et := loadEntry(tw, aw); dist == d && et == tag && !visit(tr, ref) {
					return
				}
			}
		}
		reach >>= 1
	}
}

// refState is what the incarnation a ref names is to the memory component.
type refState uint8

const (
	refDead       refState = iota
	refRegistered          // flushed into a table the memory component holds
	refActive              // an allocated or sealed slot's
)

// activeSlot names a slot of the table by its line's distance from a home line
// and its place in the line, with its words as a scan read them.
type activeSlot struct {
	d, s      int
	f, tw, aw uint64
	found     bool
}

// upsert records (trailer, ref) as the version of the key hashing to h in
// ref's incarnation, unless that incarnation's entry of the key's fingerprint
// and tag holds a higher sequence. With no entry of its own there, it takes
// over a registered incarnation's entry of the fingerprint and tag at a lower
// sequence (the twin rule), else the first free or dead slot. state reports
// what a ref's incarnation is. It reports false when no line in reach had a
// slot to take: the version is then in no entry, and the caller marks its
// incarnation.
func (t *activeTable) upsert(h, trailer, ref uint64, state func(ref uint64) refState) bool {
	fp, tag := fingerprint(h), tagOf(h)
	home := &t.buckets[h&t.mask]
	for {
		hw0 := home.lock()
		// The incarnation's entry of the key's fingerprint and tag, else a
		// registered one's to take over, else the first free or dead slot.
		// Only the lines in reach can hold entries homed here, and a line
		// past them is read only while no hole was found.
		var at, over, hole activeSlot
		reach, busy := reachOf(hw0)<<1|1, false
		for d := 0; d <= activeReach && !busy; d++ {
			if reach>>d == 0 && hole.found {
				break
			}
			var w [8]uint64
			if d == 0 {
				home.copyTo(&w)
			} else if busy = !t.buckets[(h+uint64(d))&t.mask].tryRead(&w); busy {
				break
			}
			for s := range bucketSlots {
				f, tw, aw := slotAt(&w, s)
				_, r, dist, et := loadEntry(tw, aw)
				here := activeSlot{d: d, s: s, f: f, tw: tw, aw: aw, found: true}
				switch twin := f == fp && dist == d && et == tag; {
				case twin && r>>tailBits == ref>>tailBits:
					at = here
				case twin && !over.found && trailer>>8 > tw>>8 && state(r) == refRegistered:
					over = here
				case !hole.found && (f == 0 || state(r) == refDead):
					hole = here
				}
			}
		}
		switch {
		case busy:
			home.unlock(hw0, activeVer) // never wait for a line while holding one
			runtime.Gosched()
			continue
		case at.found && trailer>>8 < at.tw>>8:
			home.unlock(hw0, activeVer)
			return true // the entry is newer
		case at.found:
			hole = at
		case over.found:
			hole = over
		case !hole.found:
			home.unlock(hw0, activeVer)
			return false
		}
		b, bw0 := home, hw0
		if hole.d > 0 {
			var ok bool
			b = &t.buckets[(h+uint64(hole.d))&t.mask]
			if bw0, ok = b.tryLock(); !ok {
				home.unlock(hw0, activeVer)
				runtime.Gosched()
				continue
			}
		}
		var w [8]uint64
		b.copyTo(&w)
		if f, tw, aw := slotAt(&w, hole.s); f != hole.f || tw != hole.tw || aw != hole.aw {
			// Another key's writer took the slot since the scan.
			if hole.d > 0 {
				b.unlock(bw0, activeVer)
			}
			home.unlock(hw0, activeVer)
			runtime.Gosched()
			continue
		}
		tw, aw := storeEntry(trailer, ref, hole.d, tag)
		bw0 = b.put(bw0, hole.s, fp, tw, aw)
		if hole.d > 0 {
			b.unlock(bw0, activeVer)
		} else {
			hw0 = bw0
		}
		if flag := uint64(1) << (reachShift + hole.d - 1); hole.d > 0 && hw0&flag == 0 {
			hw0 |= flag // the home line's reach takes in the line written
			home[0].Store(hw0)
		}
		home.unlock(hw0, activeVer)
		return true
	}
}

// probeActive looks key up at snapshot in the active-key table, charging one
// DRAM access per bucket line to hw.PhaseIndex, and reports whether the table
// answered for the memory component: with the version it found, considered
// into res, or with none, when no live incarnation holds the key. It fetches
// the newest live entry of key's fingerprint and tag, and no other. It cannot
// answer, and the caller searches every active slot and registered table,
// when a live entry is newer than snapshot, or the newest lies past its
// region's committed end, is not the version recorded or holds another key,
// or when an incarnation holds a version the table left out (activeTable's
// rules).
func (e *Engine) probeActive(th *hw.Thread, res *kvstore.UserGetResult, key []byte, snapshot uint64) bool {
	e.stats.FilterProbes.Add(1)
	answered, found := true, false
	var newest, newestRef uint64
	t := e.active.Load()
	t.get(t.hash(key), func() { th.InPhase(hw.PhaseIndex, func() { th.ChargeDRAM(1) }) }, func(trailer, ref uint64) bool {
		switch {
		case e.refState(ref) == refDead:
			// Its versions are in the tree by now.
		case trailer>>8 > snapshot:
			answered = false // key's, or one sharing its fingerprint and tag
			return false
		case trailer>>8 >= newest>>8:
			newest, newestRef = trailer, ref
		}
		return true
	})
	if answered && newest != 0 {
		r, st := e.resolveRef(newestRef)
		var ent kvstore.Entry
		live := st != refDead
		if live {
			ent, live = e.fetchEntry(th, &th.Scratch.Entry, r.base, r.off, r.limit, r.part)
		}
		if answered = live && ent.Trailer == newest && string(ent.UKey) == string(key); answered {
			found = true
			considerView(res, ent.Value, ent.Seq(), ent.Kind())
		}
	}
	if answered && t.unplaced.Load() > 0 {
		answered = false
	}
	switch {
	case !answered:
		e.stats.ProbeFallbacks.Add(1)
	case !found:
		e.stats.FilterNegatives.Add(1)
	}
	return answered
}

// refEntry is where a live ref's entry lies: at off in the data region at
// base, committed up to limit, read through the cache under part.
type refEntry struct {
	base, off, limit uint64
	part             cache.PartitionID
}

// resolveRef resolves a ref of the active-key table in its active slot, else
// in its registered table, and reports what its incarnation is. A slot's
// header is read before its incarnation is compared: a ref is written after
// its incarnation's header, so a header that comes before a matching
// incarnation is that incarnation's. A flush registers its table before it
// frees the slot, so a ref found in neither was retired by a spill. With
// SkiplistCompaction off a table's entries die at its flush.
func (e *Engine) resolveRef(ref uint64) (refEntry, refState) {
	idx, gen, off := unpackActiveRef(ref)
	if slots := e.pool.slotList(); idx < len(slots) {
		s := slots[idx]
		_, state, tail := unpackHdr(s.hdr.Load())
		if state != stateFree && s.gen.Load()&refGenMask == gen {
			return refEntry{base: s.dataAddr(), off: off, limit: tail, part: e.poolPart}, refActive
		}
	}
	if !e.opts.SkiplistCompaction {
		return refEntry{}, refDead
	}
	if t := e.mem.table(ref >> tailBits); t != nil {
		return refEntry{base: t.base, off: off, limit: t.dataLen, part: cache.DefaultPartition}, refRegistered
	}
	return refEntry{}, refDead
}

// refState reports what the incarnation a ref names is (resolveRef).
func (e *Engine) refState(ref uint64) refState {
	_, st := e.resolveRef(ref)
	return st
}

// enterActive enters key's version (its trailer), stored at data offset off
// of s, in the active-key table. A version the table has no room for marks s
// (slot.unplaced).
func (e *Engine) enterActive(s *slot, key []byte, trailer, off uint64) {
	ref := activeRef(s.idx, s.gen.Load(), off)
	t := e.active.Load()
	if !t.upsert(t.hash(key), trailer, ref, e.refState) && s.unplaced.CompareAndSwap(false, true) {
		t.unplaced.Add(1)
	}
}

// enterList enters the freshest version of each key of a recovered table's
// sub-skiplist in the active-key table under its incarnation's name, as
// commitOps enters every write: the table is volatile,
// and the keys must be in it before the engine serves reads. It reports
// whether the table had room for every key. Recovery is charged nothing for
// it, as nothing for the sub-skiplist inserts beside it.
func (e *Engine) enterList(list *skiplist.List, name uint64) bool {
	placed, t := true, e.active.Load()
	var key []byte
	var it skiplist.Iterator
	list.ResetIterator(&it)
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := util.InternalKey(it.Key())
		if ik.Kind() == util.KindRangeDel {
			continue // the tombstone mirror covers it, as in commitOps
		}
		if ukey := ik.UserKey(); key == nil || string(ukey) != string(key) {
			key = ukey // a key's first point node is its freshest
			ref := name<<tailBits | util.Fixed64(it.Value())
			placed = t.upsert(t.hash(key), ik.Trailer(), ref, e.refState) && placed
		}
	}
	return placed
}

// freeSlot returns a flushed (or empty) slot to the pool at virtual time
// doneAt. Its mark, if the flush did not move it to the slot's table, clears
// here.
func (e *Engine) freeSlot(th *hw.Thread, s *slot, doneAt int64) {
	if s.unplaced.Swap(false) {
		e.active.Load().unplaced.Add(-1)
	}
	e.pool.markFree(th, s, doneAt)
}

// raiseTo raises a to v unless it already holds at least v.
func raiseTo(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
