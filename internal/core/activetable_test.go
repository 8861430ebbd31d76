package core

import (
	"fmt"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// commitAt commits one Put of key at the given sequence on th's core,
// bypassing Write's sequence draw, so that a test orders commits as it likes.
func commitAt(t *testing.T, e *Engine, th *hw.Thread, seq uint64, key, value string) {
	t.Helper()
	raiseTo(e.seq, seq)
	ops := []batchOp{{key: []byte(key), value: []byte(value), kind: util.KindValue, seq: seq}}
	if err := e.commitOps(th, ops, 0); err != nil {
		t.Fatal(err)
	}
}

// activeSeqs returns the sequences of the live entries the table holds under
// key's hash.
func activeSeqs(e *Engine, key string) (seqs []uint64) {
	e.active.get(seededHash([]byte(key)), func() {}, func(trailer, ref uint64) bool {
		if e.isActive(ref) {
			seqs = append(seqs, trailer>>8)
		}
		return true
	})
	return seqs
}

// TestActiveTableKeepsTheNewerVersion: a key is upserted out of sequence
// order, by one core into its slot or by two cores into a slot each. Within a
// slot the entry keeps the newer version whichever commits first; across
// slots each keeps its own. Either way a Get served by the table alone returns
// the newer version.
func TestActiveTableKeepsTheNewerVersion(t *testing.T) {
	for _, tc := range []struct {
		name       string
		otherCore  int
		newerFirst bool
		want       []uint64
	}{
		{"one slot, newer first", 0, true, []uint64{9}},
		{"one slot, older first", 0, false, []uint64{9}},
		{"two slots, newer first", 1, true, []uint64{9, 5}},
		{"two slots, older first", 1, false, []uint64{5, 9}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			e, th := openEngine(t, m, quietOpts())
			defer e.Close(th)
			other := m.NewThread(tc.otherCore)
			older, newer := func() { commitAt(t, e, th, 5, "k", "old") }, func() { commitAt(t, e, other, 9, "k", "new") }
			if tc.newerFirst {
				newer()
				older()
			} else {
				older()
				newer()
			}
			if got := activeSeqs(e, "k"); !slices.Equal(got, tc.want) {
				t.Fatalf("the table holds k at sequences %v, want %v", got, tc.want)
			}
			if v, err := e.Get(th, []byte("k")); err != nil || string(v) != "new" {
				t.Fatalf("Get(k) = %q, %v; want new", v, err)
			}
			if n := e.stats.ProbeFallbacks.Load(); n != 0 {
				t.Fatalf("the Get fell back %d times", n)
			}
		})
	}
}

// TestActiveTableTwinFallsBack: a key "b" whose fingerprint, tag and home
// line were key "a"'s (entered under "a"'s hash) shares "a"'s entry when both
// lie in one slot, and gets its own in another slot. A Get of "a" that finds
// "b" in the newest entry falls back and still returns "a"; once "b"'s slot
// of its own is flushed and freed, the Get skips that entry and finds "a" in
// its own with no fall-back.
func TestActiveTableTwinFallsBack(t *testing.T) {
	for _, twinCore := range []int{0, 1} {
		t.Run(fmt.Sprintf("twin on core %d", twinCore), func(t *testing.T) {
			m := testMachine()
			e, th := openEngine(t, m, quietOpts())
			defer e.Close(th)
			twin := m.NewThread(twinCore)
			commitAt(t, e, th, 5, "a", "a")
			commitAt(t, e, twin, 6, "warm", "w")
			s := e.pool.slotFor(twin.Core)
			_, _, off := unpackHdr(s.hdr.Load())
			commitAt(t, e, twin, 9, "b", "b")
			if !e.active.upsert(seededHash([]byte("a")), util.PackTrailer(9, util.KindValue), activeRef(s.idx, s.gen.Load(), off), e.isActive) {
				t.Fatal("the table had no room for the twin")
			}
			want := map[int][]uint64{0: {9}, 1: {5, 9}}[twinCore]
			if got := activeSeqs(e, "a"); !slices.Equal(got, want) {
				t.Fatalf("the table holds a's fingerprint at sequences %v, want %v", got, want)
			}
			if v, err := e.Get(th, []byte("a")); err != nil || string(v) != "a" {
				t.Fatalf("Get(a) = %q, %v beside its twin", v, err)
			}
			if n := e.stats.ProbeFallbacks.Load(); n != 1 {
				t.Fatalf("the Get fell back %d times, want 1", n)
			}
			if twinCore == 0 {
				return
			}
			if s := e.pool.sealForCore(th, twinCore); s != nil {
				e.queueSealed(th.Clock.Now(), s)
			}
			for e.pendingFlushes.Load() > 0 {
				runtime.Gosched()
			}
			if v, err := e.Get(th, []byte("a")); err != nil || string(v) != "a" {
				t.Fatalf("Get(a) = %q, %v once its twin's slot is freed", v, err)
			}
			if n := e.stats.ProbeFallbacks.Load(); n != 1 {
				t.Fatalf("the Get after the twin's flush fell back (%d fall-backs in all)", n)
			}
		})
	}
}

// TestActiveTableNeverServesPastTheTail: an entry the table holds whose
// commit CAS has not happened yet — appended and entered, the header's tail
// still below it — is never served; the Get falls back to the slots and
// returns the committed version.
func TestActiveTableNeverServesPastTheTail(t *testing.T) {
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	if err := e.Put(th, []byte("k"), []byte("committed")); err != nil {
		t.Fatal(err)
	}
	s := e.pool.slotFor(th.Core)
	_, _, tail := unpackHdr(s.hdr.Load())
	op := batchOp{key: []byte("k"), value: []byte("in flight"), kind: util.KindValue, seq: e.seq.Add(1)}
	enc := kvstore.AppendEntry(nil, op.key, util.PackTrailer(op.seq, op.kind), op.value)
	e.m.Cache.Write(th.Clock, s.dataAddr()+tail, enc, e.poolPart)
	e.enterActive(s, op.key, util.PackTrailer(op.seq, op.kind), tail)
	if got := activeSeqs(e, "k"); !slices.Equal(got, []uint64{op.seq}) {
		t.Fatalf("the table holds k at sequences %v, want the staged %d", got, op.seq)
	}
	if v, err := e.Get(th, []byte("k")); err != nil || string(v) != "committed" {
		t.Fatalf("Get(k) = %q, %v; want the committed version", v, err)
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 1 {
		t.Fatalf("the Get fell back %d times, want 1", n)
	}
}

// TestActiveTableSkipsAGoneIncarnation: once a key's slot is flushed, freed
// and handed out again, its entry names an incarnation that is gone. A Get
// skips the active slots on it, neither fetching what the new incarnation
// wrote at the same offset nor falling back, and finds the version in the
// ImmZone table.
func TestActiveTableSkipsAGoneIncarnation(t *testing.T) {
	o := quietOpts()
	o.PoolBytes = poolHeaderBytes + o.SubMemTableBytes
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)
	if err := e.Put(th, []byte("k"), []byte("flushed")); err != nil {
		t.Fatal(err)
	}
	s := e.pool.slotFor(th.Core)
	gen := s.gen.Load()
	sealActive(th, []*Engine{e})
	if err := e.Put(th, []byte("other"), []byte("new incarnation")); err != nil {
		t.Fatal(err)
	}
	if e.pool.slotFor(th.Core) != s || s.gen.Load() == gen { // the pool has one slot
		t.Fatalf("the core holds slot %d (gen %d), want slot %d's next incarnation after %d",
			e.pool.slotFor(th.Core).idx, e.pool.slotFor(th.Core).gen.Load(), s.idx, gen)
	}
	probes, misses := e.stats.FilterProbes.Load(), e.stats.FilterNegatives.Load()
	if v, err := e.Get(th, []byte("k")); err != nil || string(v) != "flushed" {
		t.Fatalf("Get(k) = %q, %v; want the flushed version", v, err)
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 0 {
		t.Fatalf("the Get fell back %d times", n)
	}
	if e.stats.FilterProbes.Load() != probes+1 || e.stats.FilterNegatives.Load() != misses+1 {
		t.Fatal("the Get did not count one probe that found k in no active slot")
	}
}

// TestActiveTableStress races Gets against writers whose slots seal, flush,
// free and are handed out again: a Get never misses a key written before it
// started and never returns a version older than the one acknowledged before
// it started. Each key has one writer, so its versions rise with every Put.
func TestActiveTableStress(t *testing.T) {
	const writers, readers, keys = 2, 2, 256
	puts := 6000
	if testing.Short() {
		puts = 1500
	}
	m := testMachine()
	o := smallOpts()
	o.SubMemTableBytes = 64 << 10
	e, th := openEngine(t, m, o)
	defer e.Close(th)
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%04d", i)) }
	value := func(ver int) []byte { return []byte(fmt.Sprintf("%08d%056d", ver, 0)) }
	var acked [keys]atomic.Int64
	for i := range keys {
		if err := e.Put(th, key(i), value(1)); err != nil {
			t.Fatal(err)
		}
		acked[i].Store(1)
	}
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wth := m.NewThread(w)
			rng := sim.NewRNG(uint64(w) + 1)
			for n := 0; n < puts; n++ {
				i := rng.Intn(keys/writers)*writers + w
				ver := acked[i].Load() + 1
				if err := e.Put(wth, key(i), value(int(ver))); err != nil {
					t.Error(err)
					return
				}
				acked[i].Store(ver)
			}
		}()
	}
	var failures atomic.Int64
	for r := range readers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rth := m.NewThread(writers + r)
			rng := sim.NewRNG(uint64(r) + 100)
			for !done.Load() {
				i := rng.Intn(keys)
				floor := acked[i].Load()
				v, err := e.Get(rth, key(i))
				if err != nil {
					t.Errorf("Get(%s) = %v, acknowledged at version %d", key(i), err, floor)
					failures.Add(1)
					return
				}
				if ver, _ := strconv.Atoi(string(v[:8])); int64(ver) < floor {
					t.Errorf("Get(%s) = version %d, %d was acknowledged before it", key(i), ver, floor)
					failures.Add(1)
					return
				}
			}
		}()
	}
	// Readers run until the writers are done.
	go func() {
		for {
			if e.stats.Puts.Load() >= int64(keys+writers*puts) || failures.Load() > 0 {
				done.Store(true)
				return
			}
			runtime.Gosched()
		}
	}()
	wg.Wait()
	if e.stats.Flushes.Load() < 4 {
		t.Fatalf("only %d flushes: the slots did not cycle", e.stats.Flushes.Load())
	}
	t.Logf("%d flushes, %d Gets, %d probes, %d fell back", e.stats.Flushes.Load(), e.stats.Gets.Load(),
		e.stats.FilterProbes.Load(), e.stats.ProbeFallbacks.Load())
}

// TestActiveTableDoesNotGrow: slot after slot of fresh keys reuses the dead
// entries of the slots freed before, so the table, sized once at open, never
// grows and never leaves a key out, however many keys pass through it.
func TestActiveTableDoesNotGrow(t *testing.T) {
	o := quietOpts()
	o.PoolBytes = 256<<10 + poolHeaderBytes
	o.SubMemTableBytes = 64 << 10
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)
	buckets := len(e.active.buckets)
	val := make([]byte, 64)
	n := 10 * bucketSlots * buckets
	for i := 0; i < n; i++ {
		if err := e.Put(th, allocKey(i), val); err != nil {
			t.Fatal(err)
		}
		if e.active.unplaced.Load() != 0 {
			t.Fatalf("write %d of %d: the table left a key out", i, n)
		}
	}
	if e.stats.Flushes.Load() < 20 {
		t.Fatalf("only %d flushes: the slots did not cycle", e.stats.Flushes.Load())
	}
	if len(e.active.buckets) != buckets {
		t.Fatalf("the table grew from %d to %d lines", buckets, len(e.active.buckets))
	}
	// The lines a probe reads, over every home line.
	lines := 0
	for h := range buckets {
		e.active.get(uint64(h), func() { lines++ }, func(uint64, uint64) bool { return true })
	}
	t.Logf("%d keys, %d flushes: %.4f lines per probe", n, e.stats.Flushes.Load(), float64(lines)/float64(buckets))
}

// TestActiveProbeAllocs: probing the table allocates nothing, whether it
// finds the key (with an empty value) or not.
func TestActiveProbeAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	for i := 0; i < 1000; i++ {
		if err := e.Put(th, allocKey(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := e.seq.Load()
	for _, key := range [][]byte{allocKey(500), allocKey(1 << 40)} {
		var res kvstore.UserGetResult
		if !e.probeActive(th, &res, key, snapshot) {
			t.Fatalf("the table could not answer for %s", key)
		}
		if n := testing.AllocsPerRun(200, func() {
			var res kvstore.UserGetResult
			e.probeActive(th, &res, key, snapshot)
		}); n != 0 {
			t.Errorf("a probe for %s allocates %.0f objects, want 0", key, n)
		}
	}
}

// TestActiveEntryPacking: an entry's trailer, ref, distance and tag survive
// the packing into a slot's two words, whatever their bits.
func TestActiveEntryPacking(t *testing.T) {
	rng := sim.NewRNG(7)
	for range 10000 {
		trailer := util.PackTrailer(rng.Uint64()>>8, util.ValueKind(rng.Intn(3)))
		ref := activeRef(rng.Intn(1<<refIdxBits), uint32(rng.Uint64()), rng.Uint64()&tailMask&^7)
		dist, tag := rng.Intn(activeReach+1), rng.Uint64()&(1<<tagBits-1)
		tw, aw := storeEntry(trailer, ref, dist, tag)
		if aw > addrMask {
			t.Fatalf("the address word %#x does not fit 48 bits", aw)
		}
		if gt, gr, gd, gtag := loadEntry(tw, aw); gt != trailer || gr != ref || gd != dist || gtag != tag {
			t.Fatalf("(%#x, %#x, %d, %#x) came back as (%#x, %#x, %d, %#x)", trailer, ref, dist, tag, gt, gr, gd, gtag)
		}
	}
}
