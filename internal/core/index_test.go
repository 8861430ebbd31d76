package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// fetchEntry pays for each cache line of an entry once: the header's read
// takes the rest of its line along (the next line too when the header
// straddles into it) and the body's read starts on a line boundary — however
// the entry lies across lines and wherever the region ends.
func TestFetchEntryReadsEachLineOnce(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	e := &Engine{m: m}
	region := m.Alloc("fetch-entry", 1<<12, 0)
	ik := util.MakeInternalKey(nil, []byte("key-of-16-bytes!"), 7, util.KindValue)
	for _, off := range []uint64{0, 8, 40, 56, 57, 60, 63, 121} {
		for _, vlen := range []int{0, 9, 30, 64, 500} {
			val := make([]byte, vlen)
			rand.New(rand.NewSource(int64(vlen))).Read(val)
			entry := kvstore.EncodeEntry(nil, ik, val)
			end := off + uint64(len(entry))
			m.Cache.Write(th.Clock, region.Addr+off, entry, cache.DefaultPartition)
			for _, limit := range []uint64{end, end + 5, end + 100, region.Size} {
				before := m.Cache.Stats()
				got, ok := e.fetchEntry(th, &th.Scratch.Entry, region.Addr, off, limit, cache.DefaultPartition)
				after := m.Cache.Stats()
				if !ok || !got.Is(ik) || string(got.Value) != string(val) {
					t.Fatalf("off %d vlen %d limit %d: fetched %q=%x ok=%v", off, vlen, limit, got.UKey, got.Value, ok)
				}
				lines := (region.Addr+end-1)/cacheLine - (region.Addr+off)/cacheLine + 1
				if reads := after.Hits + after.Misses - before.Hits - before.Misses; reads != int64(lines) {
					t.Fatalf("off %d vlen %d limit %d: %d line reads for an entry of %d lines", off, vlen, limit, reads, lines)
				}
			}
			// A region that ends inside the entry, or before its header does,
			// reads at most the header's lines and fetches nothing.
			for _, limit := range []uint64{off, off + 7, off + 8, end - 1} {
				if _, ok := e.fetchEntry(th, &th.Scratch.Entry, region.Addr, off, limit, cache.DefaultPartition); ok {
					t.Fatalf("off %d vlen %d: fetched an entry of %d bytes from a region cut at %d", off, vlen, len(entry), limit-off)
				}
			}
		}
	}
}

// TestSyncSlotReadsEachLineOnce: the lazy sync reads each line of an entry
// once, the length header's with the rest of its line, as fetchEntry does —
// it used to read the header line, then the whole entry again — and it
// indexes every entry.
func TestSyncSlotReadsEachLineOnce(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, quietOpts())
	defer e.Close(th)
	var lines uint64 // the lines each entry spans, summed
	for i, vlen := range []int{0, 9, 30, 38, 64, 100, 500, 7, 1000, 56} {
		key := fmt.Appendf(nil, "key%03d", i)
		var tail uint64 // where the entry lands: 0 in a slot not yet acquired
		if s := e.pool.slotFor(th.Core); s != nil {
			_, _, tail = unpackHdr(s.hdr.Load())
		}
		if err := e.Put(th, key, make([]byte, vlen)); err != nil {
			t.Fatal(err)
		}
		s := e.pool.slotFor(th.Core)
		base := s.dataAddr() + tail
		lines += (base+uint64(kvstore.EntryLen(len(key), vlen))-1)/cacheLine - base/cacheLine + 1
	}
	s := e.pool.slotFor(th.Core)
	count, _, _ := unpackHdr(s.hdr.Load())
	var read uint64
	m.SetMemGate(func(op sim.MemOp, addr uint64, n int) int {
		if op == sim.MemOpRead && s.dataAddr() <= addr && addr < s.dataAddr()+s.dataCap() {
			read += (addr+uint64(n)-1)/cacheLine - addr/cacheLine + 1
		}
		return n
	})
	applied := e.syncSlot(m.NewThread(0), s)
	m.SetMemGate(nil)
	if uint64(applied) != count {
		t.Fatalf("the sync indexed %d of %d entries", applied, count)
	}
	if read != lines {
		t.Fatalf("the sync read %d lines for entries spanning %d", read, lines)
	}
}
