package core

import (
	"runtime"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
)

// The active-key table maps a user key to its newest version in each active
// sub-MemTable (allocated or sealed, not yet freed): the version's trailer and
// a ref naming the slot incarnation and the entry's offset in it. A Get
// probes it instead of every writing core's slot (Engine.probeActive),
// so the memory component's write buffer costs a Get one bucket line however
// many cores write, and no lazy sync or sub-skiplist search when the key is
// there.
//
// It is built of the global index's lines (hashindex.go), sized once at open
// for the most entries the pool can hold, and never grows. An entry lies in
// its key's home line or in one of the activeReach lines after it, in the
// first slot a writer found free or dead, and records how far from home it
// lies. The 4 bits past the home line's version (its reach) flag the lines
// after it that an entry homed there was ever written to, so a probe reads the
// home line and only the lines it flags: one line, unless four live entries
// filled the home line at once. A writer holds the key's home line for the whole upsert,
// so that the writers of a line take turns, and locks the line it writes too;
// holding a line, it never waits for another, but lets go and starts over.
//
// What a Get may conclude from a probe rests on three rules:
//   - Each active slot incarnation that holds a version of a key holds an
//     entry of the key's fingerprint and tag, at the sequence of the key's
//     newest version there or a higher one: a writer replaces its own
//     incarnation's entry of the fingerprint and tag in place at an equal or
//     higher sequence, leaves it otherwise, and never touches another
//     incarnation's live entry. A key whose fingerprint and tag are another's
//     (one in 2^21 within a home line) shares that entry, so a probe that
//     finds another key there cannot answer; the version the entry no longer
//     names lies in the same incarnation and leaves the active slots with it.
//   - An entry whose slot incarnation is gone is dead. Its versions reached an
//     ImmZone table before the slot was freed (flushOne registers the table
//     first), so the later steps of the Get find them, and a writer may reuse
//     its slot.
//   - An entry no line in reach had room for marks its slot, and while a
//     marked slot is active (unplaced > 0) no probe is trusted.
//
// So a key has at most one live entry per slot incarnation, and while every
// live entry of its fingerprint and tag lies at or below a Get's snapshot, the
// newest of them, if it holds the key, is the key's newest version in any
// active slot.
type activeTable struct {
	buckets []bucket
	mask    uint64
	// unplaced counts the active slot incarnations holding a version left
	// out of the table (slot.unplaced).
	unplaced atomic.Int64
}

// activeReach is how many lines past its home a key's entry may lie: one
// spare bit of the home line each.
const activeReach = 4

// A ref names an entry: its data offset (the tail's 24 bits), its slot's
// index (a pool's geometry table holds at most 510 slots) and the low bits
// of the slot's incarnation.
const (
	refIdxBits = 10
	refGenBits = 11
	refGenMask = 1<<refGenBits - 1
)

func activeRef(idx int, gen uint32, off uint64) uint64 {
	return off | uint64(idx)<<tailBits | uint64(gen&refGenMask)<<(tailBits+refIdxBits)
}

func unpackActiveRef(ref uint64) (idx int, gen uint32, off uint64) {
	return int(ref >> tailBits & (1<<refIdxBits - 1)), uint32(ref >> (tailBits + refIdxBits)), ref & tailMask
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
	t := &activeTable{buckets: make([]bucket, nb), mask: uint64(nb - 1)}
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

// activeSlot names a slot of the table by its line's distance from a home line
// and its place in the line, with its words as a scan read them.
type activeSlot struct {
	d, s      int
	f, tw, aw uint64
	found     bool
}

// upsert records (trailer, ref) as the version of the key hashing to h in
// ref's slot incarnation, unless that incarnation's entry of the key's
// fingerprint and tag holds a higher sequence. live reports whether a ref's
// slot incarnation is active. It reports false when no line in reach had a
// free or dead slot: the version is then in no entry, and the caller marks its
// slot.
func (t *activeTable) upsert(h, trailer, ref uint64, live func(ref uint64) bool) bool {
	fp, tag := fingerprint(h), tagOf(h)
	home := &t.buckets[h&t.mask]
	for {
		hw0 := home.lock()
		// The incarnation's entry of the key's fingerprint and tag, else the
		// first free or dead slot. Only the lines in reach can hold entries
		// homed here, and a line past them is read only while no hole was
		// found.
		var at, hole activeSlot
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
				switch {
				case f == fp && dist == d && et == tag && r>>tailBits == ref>>tailBits:
					at = activeSlot{d: d, s: s, f: f, tw: tw, aw: aw, found: true}
				case !hole.found && (f == 0 || !live(r)):
					hole = activeSlot{d: d, s: s, f: f, tw: tw, aw: aw, found: true}
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
// answered for the active slots: with the version it found, considered into
// res, or with none, when no active slot holds the key. It fetches the newest
// live entry of key's fingerprint and tag, and no other. It cannot answer, and
// the caller searches every active slot, when a live entry is newer than
// snapshot, or the newest lies past its slot's committed tail, is not the
// version recorded or holds another key, or when a slot holds a version the
// table left out (activeTable's rules).
func (e *Engine) probeActive(th *hw.Thread, res *kvstore.UserGetResult, key []byte, snapshot uint64) bool {
	e.stats.FilterProbes.Add(1)
	answered, found := true, false
	var newest, newestRef uint64
	e.active.get(seededHash(key), func() { th.InPhase(hw.PhaseIndex, func() { th.ChargeDRAM(1) }) }, func(trailer, ref uint64) bool {
		switch {
		case !e.isActive(ref):
			// Dead: its versions are in an ImmZone table by now.
		case trailer>>8 > snapshot:
			answered = false // key's, or one sharing its fingerprint and tag
			return false
		case trailer>>8 >= newest>>8:
			newest, newestRef = trailer, ref
		}
		return true
	})
	if answered && newest != 0 {
		s, off, tail, live := e.activeEntry(newestRef)
		var ent kvstore.Entry
		if live {
			ent, live = e.fetchEntry(th, &th.Scratch.Entry, s.dataAddr(), off, tail, e.poolPart)
		}
		if answered = live && ent.Trailer == newest && string(ent.UKey) == string(key); answered {
			found = true
			considerView(res, ent.Value, ent.Seq(), ent.Kind())
		}
	}
	if answered && e.active.unplaced.Load() > 0 {
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

// activeEntry resolves a ref of the active-key table: the slot and data
// offset it names and the slot's committed tail, and whether the slot
// incarnation it names is still active. The header is read before the
// incarnation is compared: a ref is written after its incarnation's header,
// so a header that comes before a matching incarnation is that incarnation's.
func (e *Engine) activeEntry(ref uint64) (s *slot, off, tail uint64, live bool) {
	idx, gen, off := unpackActiveRef(ref)
	slots := e.pool.slotList()
	if idx >= len(slots) {
		return nil, 0, 0, false
	}
	s = slots[idx]
	_, state, tail := unpackHdr(s.hdr.Load())
	if state == stateFree || s.gen.Load()&refGenMask != gen {
		return nil, 0, 0, false
	}
	return s, off, tail, true
}

// isActive reports whether the slot incarnation a ref names is active.
func (e *Engine) isActive(ref uint64) bool {
	_, _, _, ok := e.activeEntry(ref)
	return ok
}

// enterActive enters key's version (its trailer), stored at data offset off
// of s, in the active-key table. A version the table has no room for marks s
// until the slot is freed (freeSlot).
func (e *Engine) enterActive(s *slot, key []byte, trailer, off uint64) {
	ref := activeRef(s.idx, s.gen.Load(), off)
	if !e.active.upsert(seededHash(key), trailer, ref, e.isActive) && s.unplaced.CompareAndSwap(false, true) {
		e.active.unplaced.Add(1)
	}
}

// freeSlot returns a flushed (or empty) slot to the pool at virtual time
// doneAt: the active-key table's entries in it are dead from here on.
func (e *Engine) freeSlot(th *hw.Thread, s *slot, doneAt int64) {
	if s.unplaced.Swap(false) {
		e.active.unplaced.Add(-1)
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
