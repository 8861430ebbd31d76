package core

import (
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// recover rebuilds the engine after a power failure (Section III-E). Under
// eADR the whole sub-MemTable pool was drained from the caches into the PMem
// backing, so the committed prefix of every sub-MemTable — everything the
// packed header's counter covers — is intact. The DRAM side (sub-skiplists,
// global index, imm-table registry) is gone and is reconstructed here:
//
//  1. re-discover flushed sub-ImmMemTables by scanning the ImmZone headers;
//  2. seal each non-Free sub-MemTable with its sub-skiplist, counters and
//     filter rebuilt in place, and return the sealed slots: the engine hands
//     them to the flush kind once it runs, the one way a slot reaches the
//     ImmZone, and Gets find them among the pool's active slots until then;
//  3. re-run the sub-skiplist compaction to rebuild the global index.
func (e *Engine) recover(poolRegion hw.Region, th *hw.Thread) ([]*slot, error) {
	p, err := loadGeometry(e.m, poolRegion, e.poolPart, e.m.Cores(), e.opts.Elastic)
	if err != nil {
		return nil, err
	}
	p.filterBits = e.mem.filterBits
	e.pool = p

	// Step 1: ImmZone scan.
	zone := e.immArena.Region()
	addr := zone.Addr
	for {
		dataLen, count, maxSeq, ok := e.readImmHdr(th, zone, addr)
		if !ok {
			break
		}
		t := e.rebuildList(th, addr+immZoneHdrSize, dataLen, count)
		t.maxSeq = max(t.maxSeq, maxSeq)
		e.mem.imms = append(e.mem.imms, t)
		e.bumpSeq(t.maxSeq)
		addr += immZoneHdrSize + dataLen
		addr = (addr + immZoneAlign - 1) &^ (immZoneAlign - 1)
	}
	e.immArena.Restore(addr)

	// Step 2: non-Free sub-MemTables become sealed slots. The header keeps
	// the tail and counts the entries recovered, so a torn tail leaves
	// nothing to sync.
	var sealed []*slot
	for _, s := range p.slotList() {
		count, tail, live := slotExtent(s)
		if !live {
			continue
		}
		if tail == 0 {
			p.writeHdr(th, s, packHdr(0, stateFree, 0))
			continue
		}
		t := e.rebuildList(th, s.dataAddr(), tail, count)
		s.list, s.listCount, s.listTail, s.listMaxSeq = t.list, t.count, tail, t.maxSeq
		s.filter.Store(t.filter)
		p.writeHdr(th, s, packHdr(t.count, stateImmutable, tail))
		e.bumpSeq(t.maxSeq)
		sealed = append(sealed, s)
	}

	// Step 3: rebuild the global index, every table in one merge into an
	// index sized for all their entries.
	if e.opts.SkiplistCompaction {
		var n uint64
		for _, t := range e.mem.imms {
			n += t.count
		}
		e.mem.global = newHashIndex(seededHash, int(n))
		e.mergeInto(th, e.mem.global, e.mem.imms)
		for _, t := range e.mem.imms {
			t.compacted = true
		}
	}
	return sealed, nil
}

// readImmHdr reads the ImmZone table header at addr and reports whether a
// table starts there: the magic matches and the data region it announces lies
// inside the zone. InExtent never adds the length to addr — a dataLen near
// 2^64 would wrap the sum back below zone.End(), and recovery would
// re-register the same table for ever.
func (e *Engine) readImmHdr(th *hw.Thread, zone hw.Region, addr uint64) (dataLen, count, maxSeq uint64, ok bool) {
	off := addr - zone.Addr
	if !util.InExtent(off, immZoneHdrSize, zone.Size) {
		return 0, 0, 0, false
	}
	var hdr [immZoneHdrSize]byte
	e.m.PMem.Read(th.Clock, addr, hdr[:])
	c := util.NewCursor(hdr[:])
	magic, dataLen, count, maxSeq := c.U64(), c.U64(), c.U64(), c.U64()
	if magic != immHeaderMagic || !util.InExtent(off+immZoneHdrSize, dataLen, zone.Size) {
		return 0, 0, 0, false
	}
	return dataLen, count, maxSeq, true
}

// slotExtent reads a sub-MemTable's packed header the way recovery may trust
// it: live reports a slot that was in use, and tail is cut back to the slot's
// own data region — a longer one is corrupt, and tail sizes the snapshot.
// loadGeometry has refused a live slot smaller than its header line.
func slotExtent(s *slot) (count, tail uint64, live bool) {
	count, state, tail := unpackHdr(s.hdr.Load())
	if state == stateFree || s.size.Load() == 0 {
		return 0, 0, false
	}
	return count, min(tail, s.dataCap()), true
}

// rebuildList reconstructs the DRAM side of the table whose data region is
// the limit bytes at base, which the caller has bounded by the region that
// holds it. The region is read in one sequential pass into a DRAM snapshot
// (snapshotInto, the way the spill streams its inputs) and the entries are
// decoded out of that; decoding stops after count entries or at the first
// torn encoding. It returns the table: its sub-skiplist, a freshly built
// negative filter covering every recovered key (the DRAM filters are volatile,
// so recovery rebuilds them before the engine serves reads), the entries
// recovered as its count and the highest sequence seen as its maxSeq.
func (e *Engine) rebuildList(th *hw.Thread, base, limit uint64, count uint64) *immTable {
	t := &immTable{base: base, dataLen: limit, list: skiplist.New(icmp, base|1)}
	expected := int(count)
	// The header's counter is untrusted input here: media corruption (or a
	// torn header write) can inflate it arbitrarily, and it must not size
	// allocations. Clamp to the densest packing the data region could
	// physically hold — the scan below stops at the first torn entry anyway.
	if maxEntries := int(limit/16) + 1; expected > maxEntries || expected < 0 {
		expected = maxEntries
	}
	if expected < 16 {
		expected = 16
	}
	t.filter = newFilter(expected, e.mem.filterBits)
	snap := t.snapshotInto(e, th, nil)
	var off uint64
	var ik, val []byte // scratch: the sub-skiplist copies what it is handed
	for t.count < count && off+8 <= limit {
		// ViewEntry bounds the length header by what is left of the snapshot
		// and checks the CRC before anything is believed.
		ent, err := kvstore.ViewEntry(snap[off:])
		if err != nil {
			break
		}
		if ent.Kind() == util.KindRangeDel {
			// Rebuild the DRAM tombstone mirror alongside the filters: the
			// recovered entry is memory-resident again, so Get needs its
			// coverage before the engine serves reads. The mirror outlives the
			// snapshot, so it takes copies.
			e.rangeTombs.add(lsm.RangeDel{
				Start: append([]byte(nil), ent.UKey...),
				End:   append([]byte(nil), ent.Value...),
				Seq:   ent.Seq(),
			})
		}
		if t.filter != nil {
			t.filter.Add(ent.UKey)
		}
		ik, val = ent.InternalKey(ik), util.PutFixed64(val[:0], off)
		t.list.Insert(ik, val, nil)
		t.maxSeq = max(t.maxSeq, ent.Seq())
		off = align8(off + uint64(ent.Len))
		t.count++
	}
	return t
}

func (e *Engine) bumpSeq(s uint64) {
	for {
		cur := e.seq.Load()
		if s <= cur || e.seq.CompareAndSwap(cur, s) {
			return
		}
	}
}
