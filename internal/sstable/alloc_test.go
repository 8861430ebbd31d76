package sstable

import (
	"fmt"
	"runtime"
	"testing"

	"cachekv/internal/util"
)

// TestCompactionIterAllocs: a compaction iterator reads every block it misses
// into the one buffer it owns, so walking a table allocates the iterator and
// that buffer (grown at most twice, to the largest block) and nothing per
// block.
func TestCompactionIterAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	_, fs, th := newMachineEnv(t)
	es := benchEntries(4000)
	_, r := openTable(t, fs, th, "t", es)
	hs, _ := blockIndex(t, r, th, es)
	if len(hs) < 16 {
		t.Fatalf("%d blocks, want at least 16", len(hs))
	}
	walk := func() {
		it, err := r.NewCompactionIter(th)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if err := it.Err(); err != nil || n != len(es) {
			t.Fatalf("walked %d of %d entries: %v", n, len(es), err)
		}
		it.Close()
	}
	if n := testing.AllocsPerRun(20, walk); n > 3 {
		t.Fatalf("a compaction walk of %d blocks: %.1f allocations, want at most 3", len(hs), n)
	}
}

// TestWriterAllocs: the writer keeps its separator key and handle encoding
// in buffers it reuses, and a writer Reset for a job's next table keeps its
// bloom hashes and data block, so a table's allocations do not grow with its
// blocks, nor its bytes with its entries beyond the filter and index blocks
// it hands to its Reader. Four times the blocks add only the doublings of the
// index block (about one allocation per six blocks at these sizes, where a
// separator copied per block and a handle encoded per block cost two), and
// a table of a reused writer allocates at most 6 B per entry: the filter
// takes 1.25 and the index block with its builder's doublings about 2.8,
// where hashes regrown for each table took about 15 more.
func TestWriterAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	m, fs, th := newMachineEnv(t)
	// Keys and values are made outside the measured runs: only the writer's
	// own allocations count.
	type table struct {
		ikeys  []util.InternalKey
		vals   [][]byte
		blocks int
	}
	build := func(n int) (tb table) {
		es := benchEntries(n)
		_, r := openTable(t, fs, th, fmt.Sprint("probe", n), es)
		hs, _ := blockIndex(t, r, th, es)
		tb.blocks = len(hs)
		for _, e := range es {
			tb.ikeys = append(tb.ikeys, util.MakeInternalKey(nil, []byte(e.key), e.seq, e.kind))
			tb.vals = append(tb.vals, []byte(e.val))
		}
		return tb
	}
	small, big := build(800), build(3200)
	if small.blocks < 16 || big.blocks < 4*small.blocks-4 {
		t.Fatalf("tables of %d and %d blocks, want at least 16 and four times that", small.blocks, big.blocks)
	}
	// measure builds tb runs times with one writer, Reset from the second
	// table on, as a job does, and returns the allocations and bytes per
	// table. Each table's file is deleted and the XPBuffer drained, so the
	// measured tables land where the warm-up's did: the device allocates no
	// backing, and its staging FIFO does not grow.
	measure := func(tb table, runs int) (allocs, bytes float64) {
		var w *Writer
		one := func() {
			fw, err := fs.Create(th, "w", 4<<20)
			if err != nil {
				t.Fatal(err)
			}
			if w == nil {
				w = NewWriter(fw, th)
			} else {
				w.Reset(fw)
			}
			for i, ik := range tb.ikeys {
				if err := w.Add(ik, tb.vals[i]); err != nil {
					t.Fatal(err)
				}
			}
			if _, _, _, err := w.Finish(); err != nil {
				t.Fatal(err)
			}
			if err := fs.Delete(th, "w"); err != nil {
				t.Fatal(err)
			}
			m.PMem.Flush(th.Clock)
		}
		for range runs {
			one()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			one()
		}
		runtime.ReadMemStats(&after)
		return float64(after.Mallocs-before.Mallocs) / float64(runs), float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
	}
	a, _ := measure(small, 10)
	b, bytes := measure(big, 10)
	t.Logf("%d blocks: %.0f allocations; %d blocks: %.0f allocations, %.2f B per entry", small.blocks, a, big.blocks, b, bytes/float64(len(big.ikeys)))
	if extra, blocks := b-a, big.blocks-small.blocks; extra > float64(blocks)/4 {
		t.Fatalf("%d more blocks cost %.0f more allocations, want at most one per four blocks (buffer doublings)", blocks, extra)
	}
	if perEntry := bytes / float64(len(big.ikeys)); perEntry > 6 {
		t.Fatalf("a reused writer's table of %d entries allocated %.2f B per entry, want at most 6", len(big.ikeys), perEntry)
	}
}
