package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/memfilter"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// compactInto is the sub-skiplist compaction mergeInto replaced, kept as its
// reference: one table at a time, every entry looked up in the global
// skiplist from the head and, when fresher, inserted from the head again.
func (e *Engine) compactInto(th *hw.Thread, global *skiplist.List, globalFilter *memfilter.Filter, t *immTable) {
	it := t.list.NewIterator()
	it.SeekToFirst()
	charge := func(visits int) {
		th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 16)
	}
	for it.Valid() {
		ik := util.InternalKey(it.Key())
		off := util.Fixed64(it.Value())
		ukey := append([]byte(nil), ik.UserKey()...)
		cur, ok := global.Get(ukey, charge)
		if !ok || func() bool { s, _, _ := decodeGlobalVal(cur); return ik.Seq() > s }() {
			if globalFilter != nil {
				globalFilter.Add(ukey)
			}
			global.Insert(ukey, encodeGlobalVal(nil, ik.Seq(), ik.Kind(), t.base+off), charge)
		}
		it.Next()
	}
}

// globalEntry is one decoded global-skiplist value.
type globalEntry struct {
	seq  uint64
	kind util.ValueKind
	addr uint64
}

// globalView is everything a reader can learn from a global skiplist.
func globalView(l *skiplist.List) map[string]globalEntry {
	view := map[string]globalEntry{}
	it := l.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		seq, kind, addr := decodeGlobalVal(it.Value())
		view[string(it.Key())] = globalEntry{seq, kind, addr}
	}
	return view
}

// TestMergeIntoMatchesCompactInto holds the k-way finger merge to the
// insert-per-key reference over seeded random inputs: 1–12 tables (some
// empty), keys overwritten within and across tables with sequence numbers
// interleaved between them, deletes and range tombstones, an empty or a
// pre-populated global list, and the tables handed to the merge in any order.
func TestMergeIntoMatchesCompactInto(t *testing.T) {
	e := &Engine{m: testMachine()}
	universe := func(i int) []byte { return []byte(fmt.Sprintf("user%04d", i)) }
	kinds := []util.ValueKind{util.KindValue, util.KindValue, util.KindValue, util.KindDelete, util.KindRangeDel}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nKeys := 1 + rng.Intn(400)
		nPre, nNew := rng.Intn(4), 1+rng.Intn(12)
		if seed%2 == 0 {
			nPre = 0 // recovery: the global list starts empty
		}
		// Deal a stream of writes with ascending sequence numbers out to the
		// tables at random, so every table's sequence range overlaps the others'.
		tables := make([]*immTable, nPre+nNew)
		offs := make([]uint64, len(tables))
		for i := range tables {
			tables[i] = &immTable{base: uint64(i+1) << 32, list: skiplist.New(icmp, uint64(seed)<<8|uint64(i))}
		}
		for seq, writes := uint64(1), 200+rng.Intn(3000); seq <= uint64(writes); seq++ {
			i := rng.Intn(len(tables))
			if i == len(tables)-1 && seed%3 == 0 {
				continue // leave one table empty
			}
			ik := util.MakeInternalKey(nil, universe(rng.Intn(nKeys)), seq, kinds[rng.Intn(len(kinds))])
			tables[i].list.Insert(ik, util.PutFixed64(nil, offs[i]), nil)
			offs[i] += 8 * uint64(1+rng.Intn(40))
		}
		pre, fresh := tables[:nPre], tables[nPre:]

		ref, refFilter := skiplist.New(nil, 1), memfilter.New(nKeys, 10)
		got, gotFilter := skiplist.New(nil, 1), memfilter.New(nKeys, 10)
		th := e.m.NewThread(0)
		for _, tb := range pre {
			e.compactInto(th, ref, refFilter, tb)
			e.compactInto(th, got, gotFilter, tb)
		}
		start := th.Clock.Now()
		for _, tb := range fresh {
			e.compactInto(th, ref, refFilter, tb)
		}
		refCost := th.Clock.Now() - start

		shuffled := append([]*immTable(nil), fresh...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		start = th.Clock.Now()
		e.mergeInto(th, got, gotFilter, shuffled)
		gotCost := th.Clock.Now() - start

		want, have := globalView(ref), globalView(got)
		if got.Len() != ref.Len() || len(have) != len(want) {
			t.Fatalf("seed %d: merge built %d keys (Len %d), reference %d (Len %d)", seed, len(have), got.Len(), len(want), ref.Len())
		}
		for k, w := range want {
			if h, ok := have[k]; !ok || h != w {
				t.Fatalf("seed %d: key %s: merge has %+v (present %v), reference %+v", seed, k, h, ok, w)
			}
			if !gotFilter.MayContain([]byte(k)) {
				t.Fatalf("seed %d: key %s is in the global list but not in its filter", seed, k)
			}
		}
		for i := 0; i < nKeys+50; i++ {
			if k := universe(i); gotFilter.MayContain(k) != refFilter.MayContain(k) {
				t.Fatalf("seed %d: filters disagree on %s", seed, k)
			}
		}
		entries := 0
		for _, tb := range fresh {
			entries += tb.list.Len()
		}
		if entries >= 16 && gotCost >= refCost {
			t.Fatalf("seed %d: merge charged %d vns for %d entries, reference %d: want less", seed, gotCost, entries, refCost)
		}
	}
}

// TestMergeIntoEarlierTableWinsTies covers what unique sequence numbers hide:
// after a crash between a flush's copy and its slot release the same table is
// recovered twice, from the ImmZone and from the slot, and the global list
// must point every key at the copy registered first, as the reference does.
func TestMergeIntoEarlierTableWinsTies(t *testing.T) {
	e := &Engine{m: testMachine()}
	th := e.m.NewThread(0)
	twins := make([]*immTable, 2)
	for i := range twins {
		twins[i] = &immTable{base: uint64(i+1) << 32, list: skiplist.New(icmp, uint64(i))}
		for k := 0; k < 200; k++ {
			ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("user%04d", k%50)), uint64(k+1), util.KindValue)
			twins[i].list.Insert(ik, util.PutFixed64(nil, uint64(k)*64), nil)
		}
	}
	ref, got := skiplist.New(nil, 1), skiplist.New(nil, 1)
	for _, tb := range twins {
		e.compactInto(th, ref, nil, tb)
	}
	e.mergeInto(th, got, nil, twins)
	want, have := globalView(ref), globalView(got)
	if len(want) != 50 || len(have) != len(want) {
		t.Fatalf("merge built %d keys, reference %d, want 50", len(have), len(want))
	}
	for k, w := range want {
		if have[k] != w || w.addr>>32 != 1 {
			t.Fatalf("key %s: merge has %+v, reference %+v, want the first table's copy", k, have[k], w)
		}
	}
}

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
