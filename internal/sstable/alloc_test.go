package sstable

import (
	"fmt"
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
// in buffers it reuses, so a table's allocations do not grow with its blocks.
// Four times the blocks add only the doublings of the buffers that grow with
// the table — the bloom hashes and the index block's — about one allocation
// per six blocks at these sizes where a separator copied per block and a
// handle encoded per block cost two.
func TestWriterAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	_, fs, th := newMachineEnv(t)
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
	allocs := func(tb table) float64 {
		return testing.AllocsPerRun(10, func() {
			fw, err := fs.Create(th, "w", 4<<20)
			if err != nil {
				t.Fatal(err)
			}
			w := NewWriter(fw, th)
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
		})
	}
	a, b := allocs(small), allocs(big)
	t.Logf("%d blocks: %.0f allocations; %d blocks: %.0f", small.blocks, a, big.blocks, b)
	if extra, blocks := b-a, big.blocks-small.blocks; extra > float64(blocks)/4 {
		t.Fatalf("%d more blocks cost %.0f more allocations, want at most one per four blocks (buffer doublings)", blocks, extra)
	}
}
