package core

import (
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// recover rebuilds the engine after a power failure (Section III-E). Under
// eADR the whole sub-MemTable pool was drained from the caches into the PMem
// backing, so the committed prefix of every sub-MemTable — everything the
// packed header's counter covers — is intact. The DRAM side (sub-skiplists,
// active-key table, imm-table registry) is gone and is reconstructed here:
//
//  1. re-discover flushed sub-ImmMemTables by scanning the ImmZone headers,
//     registering only a table whose entries all decode, and enter their keys
//     in the active-key table in seal order;
//  2. seal each non-Free sub-MemTable with its sub-skiplist and counters
//     rebuilt in place and its keys entered in the active-key table, and
//     return the sealed slots: the engine hands them to the flush kind once it
//     runs, the one way a slot reaches the ImmZone, and Gets find them among
//     the pool's active slots until then.
//
// Both steps read with ordinary loads through the LLC, under the partition
// that owns the bytes — the pool's pinned one for a slot, the default one for
// the ImmZone — so the recovered tables come back cache-resident, as they do
// on the paper's platform, and the Gets after a power cut hit the cache. The
// tables of both steps are independent byte ranges, so they are rebuilt side
// by side (rebuildAll); it also returns how many servers that took.
func (e *Engine) recover(poolRegion hw.Region, th *hw.Thread) (sealed []*slot, workers int, err error) {
	p, err := loadGeometry(e.m, poolRegion, e.poolPart, e.m.Cores())
	if err != nil {
		return nil, 0, err
	}
	p.maxSize = e.opts.SubMemTableBytes
	e.pool = p

	// Step 1: the ImmZone's header walk, on this thread; each table found is
	// a job.
	var jobs []rebuildJob
	zone := e.immArena.Region()
	addr := zone.Addr
	for {
		dataLen, count, maxSeq, ok := e.readImmHdr(th, zone, addr)
		if !ok {
			break
		}
		jobs = append(jobs, rebuildJob{base: addr + immZoneHdrSize, limit: dataLen, count: count, maxSeq: maxSeq, part: cache.DefaultPartition})
		addr += immZoneHdrSize + dataLen
		addr = (addr + immZoneAlign - 1) &^ (immZoneAlign - 1)
	}
	e.immArena.Restore(addr)
	zoneJobs := len(jobs)
	// Step 2's jobs: every live sub-MemTable that holds data.
	for _, s := range p.slotList() {
		if count, tail, live := slotExtent(s); live && tail > 0 {
			jobs = append(jobs, rebuildJob{base: s.dataAddr(), limit: tail, count: count, part: e.poolPart})
		}
	}
	workers = e.rebuildAll(th, jobs)

	for _, j := range jobs[:zoneJobs] {
		if j.t.count < j.count {
			// A copy the power cut short: its slot frees only after the
			// copy's last store, so step 2 finds every entry there.
			continue
		}
		j.t.maxSeq = max(j.t.maxSeq, j.maxSeq)
		j.t.name = recoveredName(len(e.mem.imms))
		e.mem.imms = append(e.mem.imms, j.t)
		raiseTo(e.seq, j.t.maxSeq)
	}
	// The zone's tables, oldest first, so that a key's entry in a later one
	// takes over its entry in an earlier one (the twin rule).
	if e.opts.SkiplistCompaction {
		for _, t := range e.mem.imms {
			if t.unplaced = !e.enterList(t.list, t.name); t.unplaced {
				e.active.Load().unplaced.Add(1)
			}
		}
	}
	// Step 2's header rewrites: non-Free sub-MemTables become sealed slots.
	// The header keeps the tail and counts the entries recovered, so a torn
	// tail leaves nothing to sync.
	slotJobs := jobs[zoneJobs:]
	for _, s := range p.slotList() {
		_, tail, live := slotExtent(s)
		if !live {
			continue
		}
		if tail == 0 {
			p.writeHdr(th, s, packHdr(0, stateFree, 0))
			continue
		}
		t := slotJobs[0].t
		slotJobs = slotJobs[1:]
		s.list, s.listCount, s.listTail, s.listMaxSeq = t.list, t.count, tail, t.maxSeq
		p.writeHdr(th, s, packHdr(t.count, stateImmutable, tail))
		raiseTo(e.seq, t.maxSeq)
		sealed = append(sealed, s)
	}
	for _, s := range sealed {
		if !e.enterList(s.list, incarnationName(s.idx, s.gen.Load())) && s.unplaced.CompareAndSwap(false, true) {
			e.active.Load().unplaced.Add(1)
		}
	}
	return sealed, workers, nil
}

// rebuildJob is one table steps 1 and 2 rebuild: an ImmZone table (maxSeq is
// its header's) or a live sub-MemTable's data region, read under partition
// part. rebuildAll sets t.
type rebuildJob struct {
	base, limit, count, maxSeq uint64
	part                       cache.PartitionID
	t                          *immTable
}

// rebuildAll runs the jobs of steps 1 and 2 as virtual servers, the way the
// flush kind books its copies: each job's table is read through the LLC as
// splitFlush's extents, each on a thread of its own from th's instant, booked
// on one of m.Cores() recovery servers, and rebuildList decodes the table
// once all its extents have landed. th advances to the last completion — the
// steps take their longest extent, not the sum. The host reads the extents
// one after another in order, through one snapshot buffer: the device's
// sequential-read tracker is machine-wide, so reads on host goroutines would
// make virtual time depend on how they interleave. It returns how many
// servers ran an extent.
func (e *Engine) rebuildAll(th *hw.Thread, jobs []rebuildJob) int {
	servers := sim.NewServerPool(e.m.Cores())
	start := th.Clock.Now()
	end := start
	var snap []byte
	extents := 0
	for i := range jobs {
		j := &jobs[i]
		snap = util.Sized(snap, int(j.limit))
		x := splitFlush(j.limit, servers.Size(), j.base)
		for k := range x.n {
			lo, hi := x.seam(k), x.seam(k+1)
			xth := e.m.NewThread(0)
			xth.Clock.SetLabel(hw.PhaseRecovery.Layer())
			xth.Clock.AdvanceTo(start)
			e.m.Cache.Read(xth.Clock, j.base+lo, snap[lo:hi], j.part)
			end = max(end, servers.Submit(start, xth.Clock.Now()-start))
		}
		extents += x.n
		j.t = e.rebuildList(j.base, j.limit, j.count, snap)
	}
	th.Clock.AdvanceTo(end)
	return min(extents, servers.Size())
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
	e.m.Cache.Read(th.Clock, addr, hdr[:], cache.DefaultPartition)
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
// holds it, out of buf, the DRAM copy of those bytes rebuildAll read; no entry
// is read past limit. Decoding stops after count entries or at the first torn
// encoding. It returns the table: its
// sub-skiplist, the entries recovered as its count and the highest sequence
// seen as its maxSeq.
func (e *Engine) rebuildList(base, limit, count uint64, buf []byte) *immTable {
	t := &immTable{base: base, dataLen: limit, list: skiplist.New(icmp, base|1)}
	buf = buf[:limit]
	var off uint64
	var ik, val []byte // scratch: the sub-skiplist copies what it is handed
	for t.count < count && off+8 <= limit {
		// ViewEntry bounds the length header by what is left of the snapshot
		// and checks the CRC before anything is believed.
		ent, err := kvstore.ViewEntry(buf[off:])
		if err != nil {
			break
		}
		if ent.Kind() == util.KindRangeDel {
			// Rebuild the DRAM tombstone mirror: the recovered entry is
			// memory-resident again, so Get needs its coverage before the
			// engine serves reads. The mirror outlives the snapshot, so it
			// takes copies.
			e.rangeTombs.add(lsm.RangeDel{
				Start: append([]byte(nil), ent.UKey...),
				End:   append([]byte(nil), ent.Value...),
				Seq:   ent.Seq(),
			})
		}
		ik, val = ent.InternalKey(ik), util.PutFixed64(val[:0], off)
		t.list.Insert(ik, val, nil)
		t.maxSeq = max(t.maxSeq, ent.Seq())
		off = align8(off + uint64(ent.Len))
		t.count++
	}
	return t
}
