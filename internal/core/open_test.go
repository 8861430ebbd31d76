package core

import (
	"fmt"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
)

// TestOpenShapes pins the one constructor: which engine shape a shard count
// opens, that a failed open hands back an untyped nil Store, and that the
// regions a one- and a two-shard store allocate — names, order, sizes — are
// the on-media layout older stores were written with, so a reopen finds them.
func TestOpenShapes(t *testing.T) {
	for _, shards := range []int{0, 1} {
		m := testMachine()
		th := m.NewThread(0)
		o := smallOpts()
		o.Shards = shards
		db, err := Open(m, o, th)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := db.(*Engine); !ok {
			t.Fatalf("Shards=%d opened %T, want *Engine", shards, db)
		}
		db.Close(th)
	}

	for _, tc := range []struct {
		shards int
		want   string
		names  []string
		sizes  []uint64
	}{
		{1, "*core.Engine",
			[]string{"cachekv.pool", "cachekv.imm", "cachekv.fs", "cachekv.manifest"},
			[]uint64{12 << 20, 32 << 20, 256 << 20, 4 << 20}},
		{2, "*core.Sharded",
			[]string{
				"cachekv.s0.pool", "cachekv.s0.imm", "cachekv.s0.fs", "cachekv.s0.manifest",
				"cachekv.s1.pool", "cachekv.s1.imm", "cachekv.s1.fs", "cachekv.s1.manifest",
				"cachekv.2pc.commit", "cachekv.s0.2pc", "cachekv.s1.2pc"},
			[]uint64{
				6 << 20, 16 << 20, 128 << 20, 2 << 20,
				6 << 20, 16 << 20, 128 << 20, 2 << 20,
				256 << 10, 256 << 10, 256 << 10}},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			m := testMachine()
			th := m.NewThread(0)
			o := DefaultOptions()
			o.Shards = tc.shards
			db, err := Open(m, o, th)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", db); got != tc.want {
				t.Fatalf("opened %s, want %s", got, tc.want)
			}
			regions := func() []hw.Region {
				var rs []hw.Region
				for i, name := range tc.names {
					r, ok := m.LookupRegion(name)
					if !ok {
						t.Fatalf("region %q not allocated", name)
					}
					if r.Size != tc.sizes[i] {
						t.Errorf("region %q is %d bytes, want %d", name, r.Size, tc.sizes[i])
					}
					if i > 0 && r.Addr < rs[i-1].End() {
						t.Errorf("region %q allocated before %q", name, tc.names[i-1])
					}
					rs = append(rs, r)
				}
				return rs
			}
			before := regions()
			if err := db.Put(th, []byte("k"), []byte("v")); err != nil {
				t.Fatal(err)
			}
			db.Halt()
			m.Crash()
			db.Close(th)
			m.Recover()
			th2 := m.NewThread(0)
			db2, err := Open(m, o, th2)
			if err != nil {
				t.Fatal(err)
			}
			defer db2.Close(th2)
			if v, err := db2.Get(th2, []byte("k")); err != nil || string(v) != "v" {
				t.Fatalf("reopened store lost its regions: Get = %q, %v", v, err)
			}
			// The reopen allocated nothing: the next allocation lands where it
			// would have before the crash.
			after := regions()
			for i := range before {
				if after[i] != before[i] {
					t.Errorf("region %q moved across reopen: %+v -> %+v", tc.names[i], before[i], after[i])
				}
			}
			if last, probe := after[len(after)-1], m.Alloc("probe", 4096, 4096); probe.Addr != (last.End()+4095)&^4095 {
				t.Errorf("reopen allocated regions of its own: next free address %#x, want %#x", probe.Addr, (last.End()+4095)&^4095)
			}
		})
	}

	// A failed open returns an untyped nil, whichever shape failed: a typed
	// nil pointer in the interface would pass every caller's != nil check.
	for _, shards := range []int{1, 2} {
		m := testMachine()
		o := smallOpts()
		o.Shards = shards
		o.PoolBytes = 1 << 30 // more cache than the LLC has
		db, err := Open(m, o, m.NewThread(0))
		if err == nil {
			t.Fatalf("Shards=%d: impossible geometry opened", shards)
		}
		if db != nil {
			t.Fatalf("Shards=%d: failed open returned a non-nil Store (%T)", shards, db)
		}
	}
}

// TestOpenFailureReleasesPartition: an open that fails after pinning its pool
// must hand the cache ways back, or a dozen failed attempts exhaust the LLC.
func TestOpenFailureReleasesPartition(t *testing.T) {
	m := testMachine()
	one, err := m.Cache.Reserve(1)
	if err != nil {
		t.Fatal(err)
	}
	perWay := m.Cache.PartitionBytes(one)
	m.Cache.Release(one)
	free := m.Cache.PartitionBytes(cache.DefaultPartition) - perWay // the default partition keeps one way

	o := smallOpts()
	o.SubMemTableBytes = 2 * o.PoolBytes // newPool rejects it, after the pool is pinned
	for i := 0; i < 12; i++ {
		if db, err := Open(m, o, m.NewThread(0)); err == nil {
			db.Close(m.NewThread(0))
			t.Fatal("a pool smaller than one sub-MemTable opened")
		}
	}
	all, err := m.Cache.Reserve(free)
	if err != nil {
		t.Fatalf("failed opens leaked cache ways: %v", err)
	}
	m.Cache.Release(all)
}
