package core

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"

	"cachekv/internal/hw"
)

// scanCostGolden holds one line per scan of scanCostScript, recorded at the
// commit before a Scan's merge became one heap over pooled sources and
// re-recorded twice: when restart runs began to start their values on a PMem
// line (that moved bytes on media, so what a scan reads cost something else),
// and when the lazy sync stopped reading an entry's header line twice (the
// eleven scans that sync an active slot dropped 20 vns of clock and of index
// per entry synced); every scan's rows and their hash stayed as they were.
// Never edit it for a host-side change to the scan path, which must leave
// every line as it is.
const scanCostGolden = "testdata/scan_vcost.golden"

// scanCostScript builds, on one thread with every background thread kept
// idle, an engine whose scans cross an active slot, an ImmZone table, L0 files
// and L1, with range tombstones in the tree and in memory, and then runs 200
// seeded scans. Each scan's line is: rows, a hash of the rows, and what it
// moved — its thread's clock, its PhaseSST and PhaseIndex cells, the bytes
// the device read from media, and the LLC's hits and misses.
func scanCostScript(t *testing.T) []string {
	t.Helper()
	m := testMachine()
	o := quietOpts()
	o.SkiplistCompaction = false
	e, th := openEngine(t, m, o)
	defer e.Close(th)

	const keys = 2000
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%05d", i)) }
	round := 0
	// Each batch stays well short of a slot's 128 KiB, so no slot seals while
	// the thread writes: only the script's own seals move data down.
	batch := func(from, step, n int) {
		t.Helper()
		round++
		for j := 0; j < n; j++ {
			i := (from + j*step) % keys
			v := fmt.Sprintf("v%d-%05d-%s", round, i, strings.Repeat("x", 20+i%61))
			if err := e.Put(th, key(i), []byte(v)); err != nil {
				t.Fatal(err)
			}
		}
	}
	delRange := func(lo, hi int) {
		t.Helper()
		if err := e.Write(th, rangeDel(key(lo), key(hi)), e.opts.WriteStallDeadline); err != nil {
			t.Fatal(err)
		}
	}
	for r := 0; r < 6; r++ { // L0 and L1
		batch(r*7, 13, 300)
		if r == 3 {
			delRange(500, 540)
		}
		if err := e.FlushAll(th); err != nil {
			t.Fatal(err)
		}
	}
	batch(3, 17, 300) // an ImmZone table
	delRange(1200, 1230)
	e.queueSealed(th.Clock.Now(), e.pool.sealForCore(th, th.Core))
	for e.pendingFlushes.Load() > 0 {
		runtime.Gosched()
	}
	batch(5, 19, 200) // the active slot
	delRange(1700, 1712)
	if err := e.Delete(th, key(10)); err != nil {
		t.Fatal(err)
	}
	if len(e.mem.imms) == 0 || e.tree.NumFiles(0) == 0 || e.tree.NumFiles(1) == 0 {
		t.Fatalf("%d ImmZone tables, %d L0 and %d L1 files; the scans are meant to cross all of them",
			len(e.mem.imms), e.tree.NumFiles(0), e.tree.NumFiles(1))
	}

	rng := rand.New(rand.NewSource(28))
	lines := make([]string, 0, 200)
	for i := 0; i < 200; i++ {
		if i%20 == 10 { // a write between scans: the next scan syncs it first
			batch(rng.Intn(keys), 1, 1)
		}
		start, limit := key(rng.Intn(keys)), 1+rng.Intn(60)
		if i%50 == 0 {
			limit = 0
		}
		rows := fnv.New64a()
		c0, p0, d0, l0 := th.Clock.Now(), th.PhaseBreakdown(), m.PMem.Snapshot(), m.Cache.Stats()
		n, err := e.Scan(th, start, limit, func(k, v []byte) bool {
			rows.Write(k)
			rows.Write(v)
			return true
		})
		if err != nil {
			t.Fatalf("scan %d from %s: %v", i, start, err)
		}
		p1, d1, l1 := th.PhaseBreakdown(), m.PMem.Snapshot(), m.Cache.Stats()
		lines = append(lines, fmt.Sprintf("%d %016x %d %d %d %d %d %d", n, rows.Sum64(),
			th.Clock.Now()-c0, p1[hw.PhaseSST]-p0[hw.PhaseSST], p1[hw.PhaseIndex]-p0[hw.PhaseIndex],
			d1.MediaReadB-d0.MediaReadB, l1.Hits-l0.Hits, l1.Misses-l0.Misses))
	}
	return lines
}

// TestScanVirtualCostUnchanged: a Scan's host-side machinery — how its merge
// is built and where its sources live — is not part of the model. Every
// source must see the same calls in the same order, so every scan of the
// script reads the same rows at the same virtual cost as when the golden was
// recorded.
func TestScanVirtualCostUnchanged(t *testing.T) {
	golden, err := os.ReadFile(scanCostGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Split(strings.TrimSpace(string(golden)), "\n")
	got := scanCostScript(t)
	if len(got) != len(want) {
		t.Fatalf("%d scans, the golden has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("scan %d: got %q, recorded %q (rows hash clock sst index media-read-B llc-hits llc-misses)", i, got[i], want[i])
		}
	}
}
