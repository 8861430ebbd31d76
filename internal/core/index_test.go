package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// compactInto is the sub-skiplist compaction mergeInto replaced, kept as its
// reference: one table at a time, every entry of it — each version of a key,
// not only its freshest — upserted into the global index, at the same rate
// per source node and per line the index touches.
func (e *Engine) compactInto(th *hw.Thread, x *hashIndex, t *immTable) {
	visits := 0
	it := t.list.NewIterator()
	for it.SeekToFirst(); it.Valid(); it.Next() {
		ik := util.InternalKey(it.Key())
		visits += 1 + x.upsert(ik.UserKey(), ik.Trailer(), t.base+util.Fixed64(it.Value()))
	}
	th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 16)
}

// globalEntry is one slot of the global index.
type globalEntry struct {
	trailer uint64
	addr    uint64
}

// globalView is everything the index holds, read from its arena and buckets;
// it fails t unless every key is in exactly one slot and get finds it there.
func globalView(t *testing.T, x *hashIndex) map[string]globalEntry {
	t.Helper()
	tab := x.tab.Load()
	view := map[string]globalEntry{}
	for i := range tab.buckets {
		var w [8]uint64
		tab.buckets[i].read(&w)
		for s := range bucketSlots {
			fp, trailer, addr := slotAt(&w, s)
			if fp == 0 {
				break
			}
			k, _ := x.keyAt(tab.refs[i*bucketSlots+s])
			if _, dup := view[string(k)]; dup {
				t.Fatalf("key %q in two slots", k)
			}
			if want := fingerprint(x.hash(k)); fp != want {
				t.Fatalf("key %q has fingerprint %#x in its slot, %#x by its hash", k, fp, want)
			}
			view[string(k)] = globalEntry{trailer, addr}
		}
	}
	if int64(len(view)) != x.n.Load() {
		t.Fatalf("%d keys in the slots, the index counts %d", len(view), x.n.Load())
	}
	for k, w := range view {
		found := false
		x.get([]byte(k), func() {}, func(trailer, addr uint64) bool {
			found = found || (globalEntry{trailer, addr} == w)
			return found
		})
		if !found {
			t.Fatalf("get does not reach key %q's slot %+v", k, w)
		}
	}
	return view
}

// mergeModel is what the global index must hold after tables were merged in
// the order given: per user key the highest sequence, and among equal ones
// the table met first.
func mergeModel(model map[string]globalEntry, tables ...*immTable) {
	for _, tb := range tables {
		it := tb.list.NewIterator()
		for it.SeekToFirst(); it.Valid(); it.Next() {
			ik := util.InternalKey(it.Key())
			k := string(ik.UserKey())
			if cur, ok := model[k]; !ok || ik.Seq() > cur.trailer>>8 {
				model[k] = globalEntry{ik.Trailer(), tb.base + util.Fixed64(it.Value())}
			}
		}
	}
}

// TestMergeIntoMatchesCompactInto holds the merge to the insert-per-key
// reference and to a map model over seeded random inputs: 1–12 tables (some
// empty), keys overwritten within and across tables with sequence numbers
// interleaved between them, deletes and range tombstones, an empty or a
// pre-populated index that the merge grows, the tables handed to the merge
// in every order when there are at most four and shuffled otherwise, and a
// table recovered twice (from the ImmZone and from its slot: same entries,
// same sequences), whose earlier copy must win.
func TestMergeIntoMatchesCompactInto(t *testing.T) {
	e := &Engine{m: testMachine()}
	universe := func(i int) []byte { return []byte(fmt.Sprintf("user%04d", i)) }
	kinds := []util.ValueKind{util.KindValue, util.KindValue, util.KindValue, util.KindDelete, util.KindRangeDel}
	grew := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nKeys := 1 + rng.Intn(400)
		nPre, nNew := rng.Intn(4), 1+rng.Intn(12)
		if seed%2 == 0 {
			nPre = 0 // recovery: the index starts empty
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
		if seed%5 == 0 && len(fresh) > 1 {
			// The last table is the first one's second copy, at another address.
			fresh[len(fresh)-1] = &immTable{base: fresh[0].base + 1<<31, list: fresh[0].list}
		}

		var orders [][]*immTable
		if len(fresh) <= 4 {
			orders = permutations(fresh)
		} else {
			for range 4 {
				shuffled := append([]*immTable(nil), fresh...)
				rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
				orders = append(orders, shuffled)
			}
		}
		for _, order := range orders {
			ref, got := newHashIndex(seededHash, 0), newHashIndex(seededHash, 0)
			model := map[string]globalEntry{}
			th := e.m.NewThread(0)
			for _, tb := range pre {
				e.compactInto(th, ref, tb)
				e.compactInto(th, got, tb)
			}
			mergeModel(model, pre...)
			mergeModel(model, order...)
			start := th.Clock.Now()
			for _, tb := range order {
				e.compactInto(th, ref, tb)
			}
			refCost := th.Clock.Now() - start
			buckets := len(got.tab.Load().buckets)
			start = th.Clock.Now()
			e.mergeInto(th, got, order)
			gotCost := th.Clock.Now() - start
			if len(got.tab.Load().buckets) > buckets {
				grew++
			}

			want, have := globalView(t, ref), globalView(t, got)
			if len(have) != len(model) || len(want) != len(model) {
				t.Fatalf("seed %d: merge holds %d keys, reference %d, model %d", seed, len(have), len(want), len(model))
			}
			for k, m := range model {
				if have[k] != m || want[k] != m {
					t.Fatalf("seed %d: key %s: merge has %+v, reference %+v, model %+v", seed, k, have[k], want[k], m)
				}
			}
			if gotCost > refCost {
				t.Fatalf("seed %d: merge charged %d vns, the per-entry reference %d", seed, gotCost, refCost)
			}
		}
	}
	if grew < 30 {
		t.Fatalf("the merge grew the index in %d runs; the inputs are meant to make it grow", grew)
	}
}

// permutations returns every order of ts.
func permutations(ts []*immTable) [][]*immTable {
	if len(ts) <= 1 {
		return [][]*immTable{append([]*immTable(nil), ts...)}
	}
	var out [][]*immTable
	for i := range ts {
		rest := append(append([]*immTable(nil), ts[:i]...), ts[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]*immTable{ts[i]}, p...))
		}
	}
	return out
}

// TestMergeIntoEarlierTableWinsTies covers what unique sequence numbers hide:
// after a crash between a flush's copy and its slot release the same table is
// recovered twice, from the ImmZone and from the slot, and the global index
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
	ref, got := newHashIndex(seededHash, 0), newHashIndex(seededHash, 0)
	for _, tb := range twins {
		e.compactInto(th, ref, tb)
	}
	e.mergeInto(th, got, twins)
	want, have := globalView(t, ref), globalView(t, got)
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
