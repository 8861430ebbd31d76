package core

import (
	"fmt"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/memfilter"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// recover rebuilds the engine after a power failure (Section III-E). Under
// eADR the whole sub-MemTable pool was drained from the caches into the PMem
// backing, so the committed prefix of every sub-MemTable — everything the
// packed header's counter covers — is intact. The DRAM side (sub-skiplists,
// global skiplist, imm-table registry) is gone and is reconstructed here:
//
//  1. re-discover flushed sub-ImmMemTables by scanning the ImmZone headers;
//  2. for each non-Free sub-MemTable, rebuild its sub-skiplist from the data
//     region, flush it into the ImmZone, and mark the slot Free so it can be
//     re-assigned (the paper's recovery resets allocated tables to Free);
//  3. re-run the sub-skiplist compaction to rebuild the global skiplist.
func (e *Engine) recover(poolRegion hw.Region, th *hw.Thread) error {
	p, err := loadGeometry(e.m, poolRegion, e.poolPart, e.m.Cores(), e.opts.Elastic)
	if err != nil {
		return err
	}
	p.filterBits = e.mem.filterBits
	e.pool = p

	// Step 1: ImmZone scan.
	zone := e.immArena.Region()
	addr := zone.Addr
	for addr+immZoneHdrSize <= zone.End() {
		var hdr [immZoneHdrSize]byte
		e.m.PMem.Read(th.Clock, addr, hdr[:])
		if util.Fixed64(hdr[:]) != immHeaderMagic {
			break
		}
		dataLen := util.Fixed64(hdr[8:])
		count := util.Fixed64(hdr[16:])
		maxSeq := util.Fixed64(hdr[24:])
		if addr+immZoneHdrSize+dataLen > zone.End() {
			break
		}
		base := addr + immZoneHdrSize
		list, filter, scanned, hiSeq := e.rebuildList(th, base, dataLen, count)
		t := &immTable{base: base, dataLen: dataLen, count: scanned, maxSeq: maxSeq, list: list, filter: filter}
		if hiSeq > maxSeq {
			t.maxSeq = hiSeq
		}
		e.mem.imms = append(e.mem.imms, t)
		e.bumpSeq(t.maxSeq)
		addr += immZoneHdrSize + dataLen
		addr = (addr + immZoneAlign - 1) &^ (immZoneAlign - 1)
	}
	e.immArena.Restore(addr)

	// Step 2: non-Free sub-MemTables become sub-ImmMemTables in the zone.
	for _, s := range p.slotList() {
		count, state, tail := unpackHdr(s.hdr.Load())
		if state == stateFree || s.size.Load() == 0 {
			continue
		}
		if tail > 0 {
			list, filter, scanned, hiSeq := e.rebuildList(th, s.dataAddr(), tail, count)
			dst, err := e.immArena.Alloc(immZoneHdrSize+tail, immZoneAlign)
			if err != nil {
				// The zone cannot hold the pre-crash tables plus the pool's
				// contents: spill what is already registered down to L0 and
				// retry — the same deferred reclamation the engine performs
				// at runtime.
				e.spillLocked(th)
				dst, err = e.immArena.Alloc(immZoneHdrSize+tail, immZoneAlign)
				if err != nil {
					return fmt.Errorf("cachekv: recovery ImmZone overflow: %w", err)
				}
			}
			hdr := util.PutFixed64(nil, immHeaderMagic)
			hdr = util.PutFixed64(hdr, tail)
			hdr = util.PutFixed64(hdr, scanned)
			hdr = util.PutFixed64(hdr, hiSeq)
			e.m.Cache.NTWrite(th.Clock, dst, hdr)
			buf := make([]byte, tail)
			e.m.PMem.Read(th.Clock, s.dataAddr(), buf)
			e.m.Cache.NTWrite(th.Clock, dst+immZoneHdrSize, buf)
			// Rebase the rebuilt sub-skiplist onto the ImmZone copy: offsets
			// are table-relative, so the list transfers unchanged.
			e.mem.imms = append(e.mem.imms, &immTable{
				base: dst + immZoneHdrSize, dataLen: tail, count: scanned,
				maxSeq: hiSeq, list: list, filter: filter,
			})
			e.bumpSeq(hiSeq)
		}
		p.writeHdr(th, s, packHdr(0, stateFree, 0))
	}

	// Step 3: rebuild the global skiplist.
	if e.opts.SkiplistCompaction {
		for _, t := range e.mem.imms {
			e.compactInto(th, e.mem.global, e.mem.globalFilter, t)
			t.compacted = true
		}
	}
	return nil
}

// rebuildList reconstructs one table's sub-skiplist by scanning its data
// region; it stops after count entries or at the first torn encoding, and
// returns the list, a freshly built negative filter covering every recovered
// key (the DRAM filters are volatile, so recovery rebuilds them before the
// engine serves reads), the entries recovered, and the highest sequence seen.
func (e *Engine) rebuildList(th *hw.Thread, base, limit uint64, count uint64) (*skiplist.List, *memfilter.Filter, uint64, uint64) {
	list := skiplist.New(icmp, base|1)
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
	filter := newFilter(expected, e.mem.filterBits)
	var off, scanned, hiSeq uint64
	for scanned < count && off+8 <= limit {
		var hdr [8]byte
		e.m.PMem.Read(th.Clock, base+off, hdr[:])
		blen := uint64(util.Fixed32(hdr[:]))
		if blen == 0 || off+8+blen > limit {
			break
		}
		buf := make([]byte, 8+blen)
		e.m.PMem.Read(th.Clock, base+off, buf)
		ik, val, n, err := kvstore.DecodeEntry(buf)
		if err != nil {
			break
		}
		if ik.Kind() == util.KindRangeDel {
			// Rebuild the DRAM tombstone mirror alongside the filters: the
			// recovered entry is memory-resident again, so Get needs its
			// coverage before the engine serves reads.
			e.rangeTombs.add(lsm.RangeDel{
				Start: append([]byte(nil), ik.UserKey()...),
				End:   append([]byte(nil), val...),
				Seq:   ik.Seq(),
			})
		}
		if filter != nil {
			filter.Add(ik.UserKey())
		}
		list.Insert(ik, util.PutFixed64(nil, off), nil)
		if s := ik.Seq(); s > hiSeq {
			hiSeq = s
		}
		off = align8(off + uint64(n))
		scanned++
	}
	return list, filter, scanned, hiSeq
}

func (e *Engine) bumpSeq(s uint64) {
	for {
		cur := e.seq.Load()
		if s <= cur || e.seq.CompareAndSwap(cur, s) {
			return
		}
	}
}
