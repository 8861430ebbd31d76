package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/lsm"
	"cachekv/internal/util"
)

// lookup is the index's answer for key among the slots whose address keyOf
// maps to key — the check a Get makes on the entry it fetches.
func lookup(x *hashIndex, key []byte, keyOf func(addr uint64) string) (trailer, addr uint64, lines int, ok bool) {
	x.get(key, func() { lines++ }, func(tr, a uint64) bool {
		if keyOf(a) != string(key) {
			return false
		}
		trailer, addr, ok = tr, a, true
		return true
	})
	return trailer, addr, lines, ok
}

// TestHashIndexCollisions runs 10 000 distinct keys through upserts,
// overwrites at a higher, an equal and a lower sequence, and lookups, under
// the index's own hash and under one that sends every key to the same bucket
// with the same fingerprint — where only the full key tells the slots apart —
// and holds every answer to a map.
func TestHashIndexCollisions(t *testing.T) {
	const n = 10_000
	for name, hash := range map[string]func([]byte) uint64{
		"seeded":   seededHash,
		"constant": func([]byte) uint64 { return 0x5EED },
	} {
		t.Run(name, func(t *testing.T) {
			if name == "constant" && util.RaceEnabled {
				t.Skip("one goroutine walking every slot per probe: a minute under the race detector, so CI runs it without")
			}
			x := newHashIndex(hash, 0)
			rng := rand.New(rand.NewSource(1))
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d-%x", i, rng.Uint32())
			}
			// Addresses are key index and version: the model resolves a slot
			// to its key as the entry fetched from that address would.
			addrOf := func(i, version int) uint64 { return uint64(version)<<32 | uint64(i) }
			keyOf := func(addr uint64) string { return keys[uint32(addr)] }
			type version struct{ seq, addr uint64 }
			model := map[string]version{}
			upsert := func(i int, seq uint64, v int) {
				x.upsert([]byte(keys[i]), util.PackTrailer(seq, util.KindValue), addrOf(i, v))
				if cur, ok := model[keys[i]]; !ok || seq > cur.seq {
					model[keys[i]] = version{seq, addrOf(i, v)}
				}
			}
			seq := uint64(0)
			for i := range keys {
				seq++
				upsert(i, seq, 0)
				if i%3 == 0 { // overwrite an earlier key: newer, same, then older
					j := rng.Intn(i + 1)
					seq++
					upsert(j, seq, 1)
					upsert(j, seq, 2)
					upsert(j, seq-1, 3)
				}
			}
			if x.n.Load() != n || len(model) != n {
				t.Fatalf("index holds %d keys, model %d, want %d", x.n.Load(), len(model), n)
			}
			if b := len(x.tab.Load().buckets); n > bucketKeys*b {
				t.Fatalf("%d keys in %d buckets: the index did not grow", n, b)
			}
			for _, k := range keys {
				tr, addr, _, ok := lookup(x, []byte(k), keyOf)
				if w := model[k]; !ok || tr>>8 != w.seq || addr != w.addr {
					t.Fatalf("%s: index has seq %d at %x (found %v), model seq %d at %x", k, tr>>8, addr, ok, w.seq, w.addr)
				}
			}
			for i := range 1000 {
				if _, _, _, ok := lookup(x, []byte(fmt.Sprintf("absent-%d", i)), keyOf); ok {
					t.Fatalf("absent-%d found", i)
				}
			}
		})
	}
}

// TestHashIndexProbeLines: a Get reads one line of an empty index, and about
// one of a populated one, present key or not — the price of the filter probe
// the index replaced.
func TestHashIndexProbeLines(t *testing.T) {
	x := newHashIndex(seededHash, 0)
	none := func(uint64) string { return "" }
	if _, _, lines, ok := lookup(x, []byte("k"), none); ok || lines != 1 {
		t.Fatalf("empty index: %d lines, found %v; want 1, false", lines, ok)
	}
	const n = 50_000
	keyOf := func(addr uint64) string { return fmt.Sprintf("key%013d", addr) }
	for i := range n {
		x.upsert([]byte(keyOf(uint64(i))), util.PackTrailer(uint64(i+1), util.KindValue), uint64(i))
	}
	present, absent := 0, 0
	for i := range n {
		_, _, l, _ := lookup(x, []byte(keyOf(uint64(i))), keyOf)
		present += l
		_, _, l, _ = lookup(x, []byte(keyOf(uint64(n+i))), keyOf)
		absent += l
	}
	t.Logf("lines per Get: %.3f present, %.3f absent", float64(present)/n, float64(absent)/n)
	if float64(present)/n > 1.15 || float64(absent)/n > 1.5 {
		t.Errorf("lines per Get: %.3f present, %.3f absent; want about one", float64(present)/n, float64(absent)/n)
	}
}

// TestHashIndexUpsertAllocs: an upsert allocates no object of its own — a
// key's bytes go into the arena, which grows by doubling, and an overwrite
// allocates nothing at all.
func TestHashIndexUpsertAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	const n = 10_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = allocKey(i * 7919 % n)
	}
	x := newHashIndex(seededHash, n)
	got := mallocs(func() {
		for i, k := range keys {
			x.upsert(k, util.PackTrailer(uint64(i+1), util.KindValue), uint64(i))
		}
	})
	if per := float64(got) / n; per > 0.01 {
		t.Errorf("an upsert of a new key allocates %.4f objects, want at most 0.01", per)
	}
	if got := mallocs(func() {
		for i, k := range keys {
			x.upsert(k, util.PackTrailer(uint64(n+i+1), util.KindValue), uint64(i))
		}
	}); got != 0 {
		t.Errorf("%d overwrites allocate %d objects, want 0", n, got)
	}
}

// TestHashIndexNoTornSlot: one writer keeps overwriting a bucket's four slots
// with (trailer, address) pairs that name each other, and keeps growing the
// index under the readers, while readers probe those keys. A reader must only ever
// see a pair the writer published: a trailer with an address of another
// version is a torn slot.
func TestHashIndexNoTornSlot(t *testing.T) {
	x := newHashIndex(func([]byte) uint64 { return 0 }, 0) // one run of buckets
	keys := [][]byte{[]byte("a"), []byte("b"), []byte("c"), []byte("d")}
	keyOf := func(addr uint64) string { return string(keys[addr>>40]) }
	pair := func(k int, seq uint64) (uint64, uint64) {
		return util.PackTrailer(seq, util.KindValue), uint64(k)<<40 | seq*0x9E3779B1&(1<<40-1)
	}
	for k := range keys {
		tr, addr := pair(k, 1)
		x.upsert(keys[k], tr, addr)
	}
	var stop atomic.Bool
	var torn atomic.Int64
	var wg sync.WaitGroup
	for r := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := (i + r) % len(keys)
				if tr, addr, _, ok := lookup(x, keys[k], keyOf); !ok {
					torn.Add(1)
				} else if _, want := pair(k, tr>>8); addr != want {
					torn.Add(1)
				}
			}
		}()
	}
	for seq := uint64(2); seq < 200_000; seq++ {
		k := int(seq) % len(keys)
		tr, addr := pair(k, seq)
		x.upsert(keys[k], tr, addr)
		if seq%20_000 == 0 {
			x.grow()
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("readers saw %d torn or missing slots", n)
	}
}

// TestGetDuringMergesGrowthAndSpills: sessions read keys a writer keeps
// overwriting in small slots, so that the index thread merges every few
// writes and spills and L0 compactions follow. The writer alternates between
// 16 keys and 256, each for longer than the ImmZone takes to fill, so that an
// index sized after a narrow fill grows under the readers in the wide one
// after it. Every Get must return a version at least as new as
// the one acknowledged before it began, and every slot a reader finds for its
// key — read with spills held off, so that no table under the index is
// recycled — must name an entry that carries exactly the slot's trailer: a
// slot read while the writer was changing it would pair one version's trailer
// with another's address.
func TestGetDuringMergesGrowthAndSpills(t *testing.T) {
	opts := smallOpts()
	opts.ImmZoneBytes = 512 << 10
	opts.LSM = lsm.Options{L0CompactionTrigger: 2, TableFileSize: 64 << 10}
	m := testMachine()
	e, th := openEngine(t, m, opts)
	defer e.Close(th)
	const keys, narrow, phases, readers = 256, 16, 8, 2
	key := func(k int) []byte { return []byte(fmt.Sprintf("key%04d", k)) }
	var acked [keys]atomic.Int64
	var slots atomic.Int64
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rth := m.NewThread(1 + r)
			rng := rand.New(rand.NewSource(int64(r)))
			var buf []byte
			for {
				select {
				case <-done:
					return
				default:
				}
				k := rng.Intn(keys)
				if rng.Intn(2) == 0 {
					k %= narrow // the keys every phase rewrites
				}
				if lo := acked[k].Load(); lo > 0 {
					v, err := e.Get(rth, key(k))
					var ver int64
					if err == nil {
						_, err = fmt.Sscanf(string(v[:9]), "v%08d", &ver)
					}
					if err != nil || ver < lo {
						t.Errorf("Get(%s) = version %d, %v; version %d was acknowledged before it began", key(k), ver, err, lo)
						return
					}
				}
				// Then the index itself, many times over while the writer's
				// merges run, fetching the entry only of a pair not seen yet.
				e.spillMu.RLock()
				e.mem.mu.RLock()
				x := e.mem.global
				e.mem.mu.RUnlock()
				zone := e.immArena.Region()
				var seen [2]uint64
				for range 2048 {
					x.get(key(k), func() {}, func(trailer, addr uint64) bool {
						if seen == [2]uint64{trailer, addr} {
							return true
						}
						if addr < zone.Addr || addr >= zone.End() {
							t.Errorf("%s: a slot points at %#x, outside the ImmZone", key(k), addr)
							return true
						}
						ent, ok := e.fetchEntry(rth, &buf, addr, 0, zone.End()-addr, cache.DefaultPartition)
						if !ok || string(ent.UKey) != string(key(k)) {
							return false // another key's fingerprint
						}
						slots.Add(1)
						if ent.Trailer != trailer {
							t.Errorf("%s: a slot pairs seq %d with the entry of seq %d", key(k), trailer>>8, ent.Seq())
						}
						seen = [2]uint64{trailer, addr}
						return true
					})
				}
				e.spillMu.RUnlock()
			}
		}()
	}
	pad := make([]byte, 180)
	v, grown := int64(0), 0 // grown: an index seen larger between two writes
	var last *hashIndex
	var lastBuckets int
	for p := 0; p < 2*phases && !t.Failed(); p++ {
		n, rounds := keys, 60 // 15 360 writes: six zones' worth
		if p%2 == 0 {
			n, rounds = narrow, 300 // 4 800 writes of 16 keys: a whole zone of them
		}
		for range rounds {
			v++
			for k := range n {
				if err := e.Put(th, key(k), append([]byte(fmt.Sprintf("v%08d", v)), pad...)); err != nil {
					t.Fatal(err)
				}
				acked[k].Store(v)
				// A table's merge grows the index all at once, and the
				// spill may replace the index soon after.
				e.mem.mu.RLock()
				x := e.mem.global
				e.mem.mu.RUnlock()
				if nb := len(x.tab.Load().buckets); x == last && nb > lastBuckets {
					grown++
				}
				last, lastBuckets = x, len(x.tab.Load().buckets)
			}
		}
	}
	close(done)
	wg.Wait()
	if e.stats.Spills.Load() < 4 || e.stats.Compactions.Load() < 20 || slots.Load() == 0 || grown < 2 {
		t.Fatalf("%d spills, %d merges, %d slots checked, %d growths seen: the window was not exercised",
			e.stats.Spills.Load(), e.stats.Compactions.Load(), slots.Load(), grown)
	}
	t.Logf("%d spills, %d merges, %d slots checked, %d growths seen", e.stats.Spills.Load(), e.stats.Compactions.Load(), slots.Load(), grown)
}

// TestGetSkipsAnEmptyGlobalIndex: a Get reads the global index only once a
// flush has merged a table into it and registered the table. With every key
// in the tree and no slot active, a Get probes no filter and reads no bucket
// line, so its index cell stays at 0; after a flush the same Get reads at
// least one line, and a key that lives only in the flushed table is found
// through the index.
func TestGetSkipsAnEmptyGlobalIndex(t *testing.T) {
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	get := func(key, want string) (indexNs int64) {
		t.Helper()
		before := th.PhaseBreakdown()[hw.PhaseIndex]
		if v, err := e.Get(th, []byte(key)); err != nil || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v; want %q", key, v, err, want)
		}
		return th.PhaseBreakdown()[hw.PhaseIndex] - before
	}
	if err := e.Put(th, []byte("in-tree"), []byte("t")); err != nil {
		t.Fatal(err)
	}
	if err := e.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if ns := get("in-tree", "t"); ns != 0 {
		t.Fatalf("a Get with no table in the global index spent %d vns indexing, want 0", ns)
	}

	if err := e.Put(th, []byte("merged"), []byte("m")); err != nil {
		t.Fatal(err)
	}
	merges := e.stats.Compactions.Load()
	e.queueSealed(th.Clock.Now(), e.pool.sealForCore(th, th.Core)) // into the ImmZone, short of a spill
	if !e.flushes.Wait(func() bool { return e.pendingFlushes.Load() == 0 }) {
		t.Fatal(e.err())
	}
	if n := e.stats.Compactions.Load() - merges; n != 1 {
		t.Fatalf("%d merges into the global index, want the flushed table's", n)
	}
	if ns := get("in-tree", "t"); ns < e.m.Costs.DRAMAccess {
		t.Fatalf("a Get with a merged table spent %d vns indexing, want at least one line (%d)", ns, e.m.Costs.DRAMAccess)
	}
	get("merged", "m")
}
