package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
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

// liveSeqs returns the sequences of the entries the table holds under key's
// hash whose incarnation is live: active or registered, or only those of the
// states given.
func liveSeqs(e *Engine, key string, states ...refState) (seqs []uint64) {
	if len(states) == 0 {
		states = []refState{refActive, refRegistered}
	}
	e.active.Load().get(e.active.Load().hash([]byte(key)), func() {}, func(trailer, ref uint64) bool {
		if slices.Contains(states, e.refState(ref)) {
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
			if got := liveSeqs(e, "k"); !slices.Equal(got, tc.want) {
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
// "b" in the newest entry falls back and still returns "a", also once "b"'s
// slot of its own is flushed and freed, since its entry lives on with its
// table; once the spill retires that table, the Get skips the entry and finds
// "a" in its own with no fall-back.
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
			if !e.active.Load().upsert(e.active.Load().hash([]byte("a")), util.PackTrailer(9, util.KindValue), activeRef(s.idx, s.gen.Load(), off), e.refState) {
				t.Fatal("the table had no room for the twin")
			}
			want := map[int][]uint64{0: {9}, 1: {5, 9}}[twinCore]
			if got := liveSeqs(e, "a"); !slices.Equal(got, want) {
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
			if n := e.stats.ProbeFallbacks.Load(); n != 2 {
				t.Fatalf("the Get beside the twin's flushed table fell back %d times in all, want 2", n)
			}
			e.spill(th)
			if v, err := e.Get(th, []byte("a")); err != nil || string(v) != "a" {
				t.Fatalf("Get(a) = %q, %v once its twin's table is spilled", v, err)
			}
			if n := e.stats.ProbeFallbacks.Load(); n != 2 {
				t.Fatalf("the Get after the twin's spill fell back (%d fall-backs in all)", n)
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
	if got := liveSeqs(e, "k"); !slices.Equal(got, []uint64{op.seq}) {
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
// and handed out again, its entry names an incarnation that left the pool. A
// Get resolves it to the ImmZone table, neither fetching what the new
// incarnation wrote at the same offset nor falling back. Once the spill
// retires the table the entry is dead: a Get skips it, counts a probe that
// found the key nowhere in memory, and finds the version in the tree.
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
	for _, spilled := range []bool{false, true} {
		if spilled {
			e.spill(th)
		}
		probes, misses := e.stats.FilterProbes.Load(), e.stats.FilterNegatives.Load()
		if v, err := e.Get(th, []byte("k")); err != nil || string(v) != "flushed" {
			t.Fatalf("spilled=%v: Get(k) = %q, %v; want the flushed version", spilled, v, err)
		}
		if n := e.stats.ProbeFallbacks.Load(); n != 0 {
			t.Fatalf("spilled=%v: the Get fell back %d times", spilled, n)
		}
		if e.stats.FilterProbes.Load() != probes+1 {
			t.Fatalf("spilled=%v: the Get did not probe the table once", spilled)
		}
		if miss := e.stats.FilterNegatives.Load() != misses; miss != spilled {
			t.Fatalf("spilled=%v: the probe found k in memory: %v", spilled, !miss)
		}
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
// entries of the tables spilled before, so the table, sized once at open,
// never grows and never leaves a key out, however many keys pass through it.
func TestActiveTableDoesNotGrow(t *testing.T) {
	o := quietOpts()
	o.PoolBytes = 256<<10 + poolHeaderBytes
	o.SubMemTableBytes = 64 << 10
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)
	buckets := len(e.active.Load().buckets)
	val := make([]byte, 64)
	n := 3 * bucketSlots * buckets
	for i := 0; i < n; i++ {
		if err := e.Put(th, allocKey(i), val); err != nil {
			t.Fatal(err)
		}
		if e.active.Load().unplaced.Load() != 0 {
			t.Fatalf("write %d of %d: the table left a key out", i, n)
		}
	}
	if e.stats.Flushes.Load() < 20 || e.stats.Spills.Load() < 4 {
		t.Fatalf("only %d flushes and %d spills: the slots and tables did not cycle", e.stats.Flushes.Load(), e.stats.Spills.Load())
	}
	if len(e.active.Load().buckets) != buckets {
		t.Fatalf("the table grew from %d to %d lines", buckets, len(e.active.Load().buckets))
	}
	// The lines a probe reads, over every home line.
	lines := 0
	for h := range buckets {
		e.active.Load().get(uint64(h), func() { lines++ }, func(uint64, uint64) bool { return true })
	}
	t.Logf("%d keys, %d flushes, %d spills: %.4f lines per probe", n, e.stats.Flushes.Load(), e.stats.Spills.Load(), float64(lines)/float64(buckets))
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

// liveAlways is a state function for tables no engine owns: every
// incarnation is active.
func liveAlways(uint64) refState { return refActive }

// TestHashIndexCollisions runs 10 000 distinct keys through the active-key
// table, the memory component's one hash index — upserts, overwrites at a
// higher, an equal and a lower sequence, and lookups — under the table's own
// hash and under one that homes every key at the same line, where the
// fingerprint and tag alone tell the entries apart and the line's reach has
// room for 20 of them: a key past those is refused, never placed over
// another's entry. Every key is in an incarnation of its own, and every
// answer is held to a map.
func TestHashIndexCollisions(t *testing.T) {
	const n = 10_000
	for name, hash := range map[string]func([]byte) uint64{
		"seeded":   seededHash,
		"constant": func(k []byte) uint64 { return seededHash(k)&^(1<<32-1) | 0x5EED },
	} {
		t.Run(name, func(t *testing.T) {
			x := newActiveTable(2 * n)
			x.hash = hash
			rng := rand.New(rand.NewSource(1))
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("key-%d-%x", i, rng.Uint32())
			}
			// A ref names the key by its incarnation and the version by its
			// offset, as the entry fetched from it would.
			refOf := func(i, version int) uint64 {
				return activeRef(i%recoveredIdx, uint32(i/recoveredIdx), uint64(version)*8)
			}
			keyOf := func(ref uint64) string {
				idx, gen, _ := unpackActiveRef(ref)
				return keys[int(gen)*recoveredIdx+idx]
			}
			type version struct{ seq, ref uint64 }
			model := map[string]version{}
			refused := map[string]bool{}
			upsert := func(i int, seq uint64, v int) {
				if !x.upsert(x.hash([]byte(keys[i])), util.PackTrailer(seq, util.KindValue), refOf(i, v), liveAlways) {
					if _, ok := model[keys[i]]; ok {
						t.Fatalf("%s: an overwrite was refused", keys[i])
					}
					refused[keys[i]] = true
					return
				}
				if cur, ok := model[keys[i]]; !ok || seq >= cur.seq {
					model[keys[i]] = version{seq, refOf(i, v)}
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
			lookup := func(key string) (v version, lines int, ok bool) {
				x.get(x.hash([]byte(key)), func() { lines++ }, func(trailer, ref uint64) bool {
					if keyOf(ref) != key {
						return true
					}
					v, ok = version{trailer >> 8, ref}, true
					return false
				})
				return v, lines, ok
			}
			placed := n
			if name == "constant" {
				placed = bucketSlots * (activeReach + 1)
			}
			if len(model) != placed || len(refused) != n-placed {
				t.Fatalf("the table placed %d keys and refused %d, want %d placed", len(model), len(refused), placed)
			}
			for _, k := range keys {
				got, lines, ok := lookup(k)
				if w, in := model[k]; ok != in || got != w {
					t.Fatalf("%s: the table has %+v (found %v), the model %+v (held %v)", k, got, ok, w, in)
				}
				if lines > activeReach+1 {
					t.Fatalf("%s: a probe read %d lines", k, lines)
				}
			}
			for i := range 1000 {
				if _, _, ok := lookup(fmt.Sprintf("absent-%d", i)); ok {
					t.Fatalf("absent-%d found", i)
				}
			}
		})
	}
}

// TestHashIndexProbeLines: a probe of the active-key table reads one line of
// an empty table, and about one of a table holding half the entries it is
// sized for, present key or not; and that table refuses hardly a key. The
// engine sizes it for entries of minEntryBytes, so a real memory component
// fills it less.
func TestHashIndexProbeLines(t *testing.T) {
	const n = 50_000
	x := newActiveTable(2 * n)
	probe := func(key []byte) (lines int) {
		x.get(x.hash(key), func() { lines++ }, func(uint64, uint64) bool { return true })
		return lines
	}
	if lines := probe([]byte("k")); lines != 1 {
		t.Fatalf("empty table: %d lines, want 1", lines)
	}
	refused := 0
	for i := range n {
		if !x.upsert(x.hash(allocKey(i)), util.PackTrailer(uint64(i+1), util.KindValue), activeRef(i%recoveredIdx, uint32(i/recoveredIdx), 0), liveAlways) {
			refused++
		}
	}
	present, absent := 0, 0
	for i := range n {
		present += probe(allocKey(i))
		absent += probe(allocKey(n + i))
	}
	t.Logf("lines per probe: %.3f present, %.3f absent; %d keys refused", float64(present)/n, float64(absent)/n, refused)
	if refused > n/10_000 {
		t.Errorf("%d of %d keys refused", refused, n)
	}
	if float64(present)/n > 1.15 || float64(absent)/n > 1.15 {
		t.Errorf("lines per probe: %.3f present, %.3f absent; want about one", float64(present)/n, float64(absent)/n)
	}
}

// TestHashIndexUpsertAllocs: an upsert into the active-key table allocates
// nothing, of a new key or an overwrite.
func TestHashIndexUpsertAllocs(t *testing.T) {
	skipAllocsUnderRace(t)
	const n = 10_000
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = allocKey(i * 7919 % n)
	}
	x := newActiveTable(2 * n)
	for round := range 2 {
		if got := mallocs(func() {
			for i, k := range keys {
				x.upsert(x.hash(k), util.PackTrailer(uint64(round*n+i+1), util.KindValue), activeRef(1, 1, uint64(i)*8), liveAlways)
			}
		}); got != 0 {
			t.Errorf("round %d: %d upserts allocate %d objects, want 0", round, n, got)
		}
	}
}

// TestHashIndexNoTornSlot: one writer keeps overwriting the four entries of
// one line of the active-key table — four incarnations of one fingerprint and
// tag — with (trailer, ref) pairs that name each other, while readers probe
// the line. A reader must only ever see a pair the writer published: a
// trailer with the ref of another version is a torn slot.
func TestHashIndexNoTornSlot(t *testing.T) {
	x := newActiveTable(minBuckets * bucketSlots)
	const incarnations = bucketSlots
	pair := func(k int, seq uint64) (uint64, uint64) {
		return util.PackTrailer(seq, util.KindValue), activeRef(k, 1, seq*0x9E3779B1&tailMask&^7)
	}
	for k := range incarnations {
		tr, ref := pair(k, 1)
		x.upsert(0, tr, ref, liveAlways)
	}
	var stop atomic.Bool
	var torn, probes atomic.Int64
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				seen := 0
				x.get(0, func() {}, func(tr, ref uint64) bool {
					idx, _, _ := unpackActiveRef(ref)
					if _, want := pair(idx, tr>>8); ref != want {
						torn.Add(1)
					}
					seen++
					return true
				})
				if seen != incarnations {
					torn.Add(1)
				}
				probes.Add(1)
			}
		}()
	}
	for seq := uint64(2); seq < 200_000; seq++ {
		tr, ref := pair(int(seq)%incarnations, seq)
		if !x.upsert(0, tr, ref, liveAlways) {
			t.Fatal("an overwrite was refused")
		}
	}
	stop.Store(true)
	wg.Wait()
	if n := torn.Load(); n > 0 {
		t.Fatalf("readers saw %d torn or missing entries in %d probes", n, probes.Load())
	}
}

// TestActiveTableTwinTakesOverAFlushedEntry: under a stub hash that gives key
// "b" key "a"'s fingerprint, tag and home line, "b" written into a newer
// incarnation takes over "a"'s entry once "a"'s slot is flushed, rather than
// keeping an entry of its own beside it. A Get of "a" then finds "b" in the
// only entry, falls back and still returns "a" from the flushed table; a Get
// of "b" is answered by the table.
func TestActiveTableTwinTakesOverAFlushedEntry(t *testing.T) {
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	e.active.Load().hash = func(k []byte) uint64 {
		if string(k) == "b" {
			k = []byte("a")
		}
		return seededHash(k)
	}
	commitAt(t, e, th, 5, "a", "a")
	sealActive(th, []*Engine{e})
	if got := liveSeqs(e, "a", refRegistered); !slices.Equal(got, []uint64{5}) {
		t.Fatalf("a's flushed table holds entries at sequences %v, want [5]", got)
	}
	commitAt(t, e, th, 9, "b", "b")
	if got := liveSeqs(e, "a"); !slices.Equal(got, []uint64{9}) {
		t.Fatalf("the table holds a's fingerprint at sequences %v, want the twin's 9 alone", got)
	}
	if v, err := e.Get(th, []byte("a")); err != nil || string(v) != "a" {
		t.Fatalf("Get(a) = %q, %v beside its twin", v, err)
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 1 {
		t.Fatalf("the Get of a fell back %d times, want 1", n)
	}
	if v, err := e.Get(th, []byte("b")); err != nil || string(v) != "b" {
		t.Fatalf("Get(b) = %q, %v", v, err)
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 1 {
		t.Fatalf("the Get of b fell back (%d fall-backs in all)", n)
	}
}

// TestActiveTableHotKeyKeepsOneRegisteredEntry: one key written into 42 slot
// incarnations, each flushed before the next, with a spill half way, keeps
// one entry in the active slot and at most one in a flushed table: each new
// incarnation's first write takes over the flushed one's entry. Every Get is
// answered by the table.
func TestActiveTableHotKeyKeepsOneRegisteredEntry(t *testing.T) {
	e, th := openEngine(t, testMachine(), quietOpts())
	defer e.Close(th)
	check := func(i int, want string, active, registered int) {
		t.Helper()
		if a, r := liveSeqs(e, "hot", refActive), liveSeqs(e, "hot", refRegistered); len(a) != active || len(r) > registered {
			t.Fatalf("write %d: hot has active entries at %v and flushed ones at %v, want %d and at most %d", i, a, r, active, registered)
		}
		if v, err := e.Get(th, []byte("hot")); err != nil || string(v) != want {
			t.Fatalf("write %d: Get(hot) = %q, %v; want %s", i, v, err, want)
		}
	}
	for i := range 42 {
		if i == 21 {
			e.spill(th)
		}
		v := fmt.Sprintf("v%02d", i)
		if err := e.Put(th, []byte("hot"), []byte(v)); err != nil {
			t.Fatal(err)
		}
		check(i, v, 1, 1)
		sealActive(th, []*Engine{e})
		check(i, v, 0, 1)
	}
	if e.stats.Flushes.Load() < 40 || e.stats.Spills.Load() == 0 {
		t.Fatalf("%d flushes and %d spills, want 40 and one", e.stats.Flushes.Load(), e.stats.Spills.Load())
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 0 {
		t.Fatalf("%d Gets fell back", n)
	}
}

// TestCrashRecoveredTablesCostOneLine: a store crashes with at least three
// ImmZone tables and an active sub-MemTable, keys overwritten across them.
// Recovery enters the tables in seal order, then the slot, so that each key
// keeps one entry: every key is found at its last acknowledged value with
// one line of the active-key table per Get and no fall-back.
func TestCrashRecoveredTablesCostOneLine(t *testing.T) {
	opts := smallOpts()
	e, th := openEngine(t, testMachine(), opts)
	const unique = 1500
	key := func(i int) string { return fmt.Sprintf("key%013d", i*7919%unique) }
	want := map[string]string{}
	put := func(i int) {
		k, v := key(i), fmt.Sprintf("v%d", i)
		if err := e.Put(th, []byte(k), []byte(v)); err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	i := 0
	for e.stats.Flushes.Load() < 3 {
		for end := i + 64; i < end; i++ {
			put(i)
		}
		for e.pendingFlushes.Load() > 0 {
			runtime.Gosched()
		}
	}
	for end := i + 300; i < end; i++ {
		put(i)
	}
	e2, th2 := crashAndReopen(t, e, opts)
	defer e2.Close(th2)
	e2.mem.mu.RLock()
	zone := len(e2.mem.imms)
	e2.mem.mu.RUnlock()
	if zone < 3 {
		t.Fatalf("recovered %d ImmZone tables, want at least 3", zone)
	}
	for k, v := range want {
		before := th2.PhaseBreakdown()[hw.PhaseIndex]
		if got, err := e2.Get(th2, []byte(k)); err != nil || string(got) != v {
			t.Fatalf("Get(%s) = %q, %v; want %s", k, got, err, v)
		}
		if ns := th2.PhaseBreakdown()[hw.PhaseIndex] - before; ns != e2.m.Costs.DRAMAccess {
			t.Fatalf("Get(%s) spent %d vns in the index, want one line (%d)", k, ns, e2.m.Costs.DRAMAccess)
		}
		if seqs := liveSeqs(e2, k); len(seqs) != 1 {
			t.Fatalf("%s has entries at sequences %v, want one", k, seqs)
		}
	}
	if n := e2.stats.ProbeFallbacks.Load(); n != 0 {
		t.Fatalf("%d of %d Gets fell back", n, len(want))
	}
	t.Logf("%d keys over %d writes, %d ImmZone tables", len(want), i, zone)
}

// TestGetSkipsAnEmptyMemoryComponent: a Get probes the active-key table only
// while the memory component holds a slot or a flushed table. With every key
// in the tree and no slot active, a Get reads no line, so its index cell
// stays at 0; once a flush registers a table, a Get of the tree's key reads
// one line, and a key that lives only in the flushed table is found with one
// line too.
func TestGetSkipsAnEmptyMemoryComponent(t *testing.T) {
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
		t.Fatalf("a Get with nothing in memory spent %d vns indexing, want 0", ns)
	}
	if err := e.Put(th, []byte("flushed"), []byte("f")); err != nil {
		t.Fatal(err)
	}
	sealActive(th, []*Engine{e}) // into the ImmZone, short of a spill
	if e.stats.Flushes.Load() != 2 || e.stats.Spills.Load() != 1 {
		t.Fatalf("%d flushes and %d spills, want the table registered", e.stats.Flushes.Load(), e.stats.Spills.Load())
	}
	for k, v := range map[string]string{"in-tree": "t", "flushed": "f"} {
		if ns := get(k, v); ns != e.m.Costs.DRAMAccess {
			t.Fatalf("Get(%s) beside a flushed table spent %d vns indexing, want one line (%d)", k, ns, e.m.Costs.DRAMAccess)
		}
	}
	if n := e.stats.ProbeFallbacks.Load(); n != 0 {
		t.Fatalf("%d Gets fell back", n)
	}
}

// TestGetDuringFlushesAndSpills: sessions read keys a writer keeps
// overwriting in small slots, so that flushes register a table every few
// writes and spills and L0 compactions follow. The writer alternates between
// 16 keys and 256, each for longer than the ImmZone takes to fill, so that
// hot keys pass from table to table (the twin rule) and whole fills of fresh
// keys follow them. Every Get must return a version at least as new as the
// one acknowledged before it began, and every entry of a flushed table a
// reader finds for its key — read with spills held off, so that no table is
// retired — must name an entry that carries exactly the table entry's
// trailer: an entry read while a writer was changing it would pair one
// version's trailer with another's ref.
func TestGetDuringFlushesAndSpills(t *testing.T) {
	opts := smallOpts()
	opts.ImmZoneBytes = 512 << 10
	opts.LSM = lsm.Options{L0CompactionTrigger: 2, TableFileSize: 64 << 10}
	m := testMachine()
	e, th := openEngine(t, m, opts)
	defer e.Close(th)
	const keys, narrow, phases, readers = 256, 16, 8, 2
	key := func(k int) []byte { return []byte(fmt.Sprintf("key%04d", k)) }
	var acked [keys]atomic.Int64
	var checked atomic.Int64
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
				// Then the table itself, many times over while the writer's
				// flushes run, fetching the entry only of a pair not seen yet.
				e.spillMu.RLock()
				var seen [2]uint64
				for range 2048 {
					e.active.Load().get(e.active.Load().hash(key(k)), func() {}, func(trailer, ref uint64) bool {
						r, st := e.resolveRef(ref)
						if st != refRegistered || seen == [2]uint64{trailer, ref} {
							return true
						}
						ent, ok := e.fetchEntry(rth, &buf, r.base, r.off, r.limit, r.part)
						if !ok {
							t.Errorf("%s: a flushed table's entry at offset %d does not decode", key(k), r.off)
							return false
						}
						if string(ent.UKey) != string(key(k)) {
							return true // another key's fingerprint and tag
						}
						checked.Add(1)
						if ent.Trailer != trailer {
							t.Errorf("%s: an entry pairs seq %d with the version of seq %d", key(k), trailer>>8, ent.Seq())
						}
						seen = [2]uint64{trailer, ref}
						return true
					})
				}
				e.spillMu.RUnlock()
			}
		}()
	}
	pad := make([]byte, 180)
	v := int64(0)
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
			}
		}
	}
	close(done)
	wg.Wait()
	if e.stats.Spills.Load() < 4 || e.stats.Flushes.Load() < 20 || checked.Load() == 0 {
		t.Fatalf("%d spills, %d flushes, %d flushed entries checked: the window was not exercised",
			e.stats.Spills.Load(), e.stats.Flushes.Load(), checked.Load())
	}
	t.Logf("%d spills, %d flushes, %d flushed entries checked, %d of %d Gets fell back", e.stats.Spills.Load(),
		e.stats.Flushes.Load(), checked.Load(), e.stats.ProbeFallbacks.Load(), e.stats.Gets.Load())
}
