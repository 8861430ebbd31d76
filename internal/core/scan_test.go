package core

import (
	"errors"
	"fmt"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// corruptTables overwrites the first byte of every table of e — its first
// entry's shared-prefix length, which can only be 0 — so the first data block
// of each no longer decodes. It returns how many tables it damaged.
func corruptTables(t *testing.T, m *hw.Machine, e *Engine, th *hw.Thread) int {
	t.Helper()
	n := 0
	for level := 0; level < e.tree.NumLevels(); level++ {
		for _, f := range e.tree.Files(level) {
			file, err := e.fs.Open(fmt.Sprintf("%06d.sst", f.Num))
			if err != nil {
				t.Fatal(err)
			}
			m.Cache.Write(th.Clock, file.Addr(0), []byte{0x7f}, cache.DefaultPartition)
			n++
		}
	}
	return n
}

// A Scan that runs into a block it cannot decode must fail, not return the
// rows before it as if they were the answer. Three scans in a row reach the
// bad block by the three ways a foreground read loads one: in place on PMem
// (first touch), through the copy a second touch admits to the block cache,
// and from the cache that copy filled.
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
	t.Run("engine", func(t *testing.T) {
		m := testMachine()
		e, th := openEngine(t, m, smallOpts())
		defer e.Close(th)
		load(t, e, th)
		if corruptTables(t, m, e, th) == 0 {
			t.Fatal("nothing was flushed to the tree")
		}
		check(t, e, th, []*Engine{e})
	})
	t.Run("sharded", func(t *testing.T) {
		m := testMachine()
		sh, th := openSharded(t, m, smallShardedOpts(2))
		defer sh.Close(th)
		load(t, sh, th)
		if corruptTables(t, m, sh.shards[0], th) == 0 {
			t.Fatal("nothing was flushed to shard 0's tree")
		}
		check(t, sh, th, sh.shards)
	})
}
