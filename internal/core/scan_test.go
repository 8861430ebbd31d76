package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// TestConcurrentScansDuringFlushAndSpill: eight sessions scan while a writer
// rewrites every key, round after round, and forces a flush or a spill after
// each round — so sources are sealed, copied into the ImmZone and spilled to
// the tree under scans that hold them, each scan through a pooled cursor.
// Every row is checked against the model: the rows are the keys from the
// start on, in order and without a gap, and each carries a version the writer
// had finished before the scan began or had begun by the time it ended.
func TestConcurrentScansDuringFlushAndSpill(t *testing.T) {
	m := testMachine()
	e, th := openEngine(t, m, smallOpts())
	defer e.Close(th)
	const keys, rounds, limit = 400, 8, 40
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	write := func(r int) {
		for i := 0; i < keys; i++ {
			if err := e.Put(th, key(i), []byte(fmt.Sprintf("%05d@%d", i, r))); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(0)
	var begun, finished atomic.Int64 // rounds the writer has started / acked whole
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for s := 1; s <= 8; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			rth := m.NewThread(s)
			rng := rand.New(rand.NewSource(int64(s)))
			for {
				lo, from := finished.Load(), rng.Intn(keys)
				next, bad := from, ""
				n, err := e.Scan(rth, key(from), limit, func(k, v []byte) bool {
					var i, r int
					if _, err := fmt.Sscanf(string(v), "%d@%d", &i, &r); err != nil || string(k) != string(key(next)) || i != next || r < int(lo) {
						bad = fmt.Sprintf("row %d is %s=%s, want %s at version ≥ %d", next-from, k, v, key(next), lo)
						return false
					}
					if hi := begun.Load(); r > int(hi) {
						bad = fmt.Sprintf("row %s=%s is newer than round %d, the last begun", k, v, hi)
						return false
					}
					next++
					return true
				})
				if want := min(limit, keys-from); bad != "" || err != nil || n != want {
					t.Errorf("session %d: Scan from %s = %d rows, err %v, want %d: %s", s, key(from), n, err, want, bad)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}(s)
	}
	for r := 1; r <= rounds; r++ {
		begun.Store(int64(r))
		write(r)
		finished.Store(int64(r))
		if r%2 == 0 {
			if err := e.FlushAll(th); err != nil { // flush, spill and compaction
				t.Fatal(err)
			}
		} else {
			sealActive(th, []*Engine{e}) // a flush into the ImmZone
		}
	}
	close(stop)
	wg.Wait()
	if e.stats.Spills.Load() == 0 {
		t.Fatal("no spill ran under the scans")
	}
}

// corruptTables overwrites the first byte of every table of e — the length
// of its first run's key area — so the first data block of each no longer
// decodes. It returns how many tables it damaged and a func that writes the
// original bytes back.
func corruptTables(t *testing.T, m *hw.Machine, e *Engine, th *hw.Thread) (int, func()) {
	t.Helper()
	var addrs []uint64
	var was []byte
	for level := 0; level < e.tree.NumLevels(); level++ {
		for _, f := range e.tree.Files(level) {
			file, err := e.fs.Open(fmt.Sprintf("%06d.sst", f.Num))
			if err != nil {
				t.Fatal(err)
			}
			var b [1]byte
			m.Cache.Read(th.Clock, file.Addr(0), b[:], cache.DefaultPartition)
			m.Cache.Write(th.Clock, file.Addr(0), []byte{b[0] ^ 0x80}, cache.DefaultPartition)
			addrs, was = append(addrs, file.Addr(0)), append(was, b[0])
		}
	}
	return len(addrs), func() {
		for i, a := range addrs {
			m.Cache.Write(th.Clock, a, was[i:i+1], cache.DefaultPartition)
		}
	}
}

// A Scan that runs into a block it cannot decode must fail, not return the
// rows before it as if they were the answer. Three scans in a row reach the
// bad block by the three ways a foreground read loads one: in place on PMem
// (first touch), through the copy a second touch admits to the block cache,
// and from the cache that copy filled. Then the byte is written back and the
// store reopened (the block cache holds damaged copies): scans run through
// the same pooled cursors as the failed ones, which must carry no error over.
func TestScanReportsCorruptBlock(t *testing.T) {
	const keys = 3000
	load := func(t *testing.T, db kvstore.DB, th *hw.Thread) {
		t.Helper()
		for i := 0; i < keys; i++ {
			if err := db.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("value-%06d", i))); err != nil {
				t.Fatal(err)
			}
		}
		if err := db.FlushAll(th); err != nil {
			t.Fatal(err)
		}
	}
	check := func(t *testing.T, db kvstore.DB, th *hw.Thread, shards []*Engine) {
		t.Helper()
		probes := func() (direct, admitted, hits int64) {
			for _, e := range shards {
				st := e.tree.CacheStats()
				direct, admitted, hits = direct+st.Direct, admitted+st.Admitted, hits+st.Hits
			}
			return
		}
		for _, via := range []string{"in place", "admitted copy", "cache hit"} {
			d0, a0, h0 := probes()
			n, err := db.Scan(th, nil, 0, func(k, v []byte) bool { return true })
			if !errors.Is(err, util.ErrCorrupt) {
				t.Fatalf("%s: Scan = %d rows, err %v; want ErrCorrupt", via, n, err)
			}
			if n >= keys {
				t.Fatalf("%s: Scan delivered all %d rows across a corrupt block", via, n)
			}
			d1, a1, h1 := probes()
			if moved := map[string]bool{"in place": d1 > d0, "admitted copy": a1 > a0, "cache hit": h1 > h0}; !moved[via] {
				t.Fatalf("%s: the scan did not load a block that way (direct %d→%d, admitted %d→%d, hits %d→%d)", via, d0, d1, a0, a1, h0, h1)
			}
		}
		// A limit the intact rows cannot fill is an error too, not a short count.
		if n, err := db.Scan(th, nil, keys, func(k, v []byte) bool { return true }); !errors.Is(err, util.ErrCorrupt) {
			t.Fatalf("limited Scan = %d rows, err %v; want ErrCorrupt", n, err)
		}
	}
	whole := func(t *testing.T, db kvstore.DB, th *hw.Thread) {
		t.Helper()
		for limit, want := range map[int]int{0: keys, 50: 50} {
			rows := 0
			n, err := db.Scan(th, nil, limit, func(k, v []byte) bool {
				if want := fmt.Sprintf("key%06d=value-%06d", rows, rows); string(k)+"="+string(v) != want {
					t.Fatalf("repaired scan: row %d is %s=%s, want %s", rows, k, v, want)
				}
				rows++
				return true
			})
			if err != nil || n != want || rows != want {
				t.Fatalf("repaired Scan(limit %d) = %d rows (callback %d), err %v; want %d and nil", limit, n, rows, err, want)
			}
		}
	}
	t.Run("engine", func(t *testing.T) {
		m := testMachine()
		e, th := openEngine(t, m, smallOpts())
		load(t, e, th)
		n, repair := corruptTables(t, m, e, th)
		if n == 0 {
			t.Fatal("nothing was flushed to the tree")
		}
		check(t, e, th, []*Engine{e})
		repair()
		e.Halt()
		e2, th2 := crashAndReopen(t, m, smallOpts())
		defer e2.Close(th2)
		whole(t, e2, th2)
	})
	t.Run("sharded", func(t *testing.T) {
		m := testMachine()
		so := smallShardedOpts(2)
		sh, th := openSharded(t, m, so)
		load(t, sh, th)
		n, repair := corruptTables(t, m, sh.shards[0], th)
		if n == 0 {
			t.Fatal("nothing was flushed to shard 0's tree")
		}
		check(t, sh, th, sh.shards)
		repair()
		sh.Halt()
		sh2, th2 := crashAndReopenSharded(t, m, so)
		defer sh2.Close(th2)
		whole(t, sh2, th2)
	})
}
