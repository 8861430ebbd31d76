package slmdb

import (
	"fmt"
	"testing"

	"cachekv/internal/baseline"
	"cachekv/internal/baseline/storetest"
	"cachekv/internal/hw"
)

func testMachine() *hw.Machine {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	return hw.NewMachine(cfg)
}

func smallOpts(v baseline.Variant) Options {
	o := DefaultOptions()
	o.Variant = v
	o.MemBytes = 256 << 10
	o.SegmentBytes = 1 << 20
	o.FSBytes = 128 << 20
	return o
}

func openDB(t *testing.T, m *hw.Machine, opts Options) (*DB, *hw.Thread) {
	t.Helper()
	th := m.NewThread(0)
	db, err := Open(m, opts, th)
	if err != nil {
		t.Fatal(err)
	}
	return db, th
}

var engine = storetest.Engine{
	Name: "SLM-DB",
	Open: func(m *hw.Machine, th *hw.Thread, v baseline.Variant) (*baseline.Store, error) {
		db, err := Open(m, smallOpts(v), th)
		if err != nil {
			return nil, err
		}
		return db.Store, nil
	},
}

// The behaviour SLM-DB shares with NoveLSM (package storetest).
func TestPutGetAllVariants(t *testing.T)  { storetest.Run(t, engine, storetest.PutGet) }
func TestNames(t *testing.T)              { storetest.Run(t, engine, storetest.Name) }
func TestDelete(t *testing.T)             { storetest.Run(t, engine, storetest.DeleteOverwrite) }
func TestScan(t *testing.T)               { storetest.Run(t, engine, storetest.Scan) }
func TestConcurrentWriters(t *testing.T)  { storetest.Run(t, engine, storetest.ConcurrentWriters) }
func TestCrashRecovery(t *testing.T)      { storetest.Run(t, engine, storetest.CrashRecovery) }
func TestFlushAllIdempotent(t *testing.T) { storetest.Run(t, engine, storetest.FlushAllIdempotent) }

func TestSingleLevelInvariant(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	for i := 0; i < 30000; i++ {
		if err := db.Put(th, []byte(fmt.Sprintf("key%08d", i)), make([]byte, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if db.Tree().NumFiles(0) != 0 {
		t.Fatal("SLM-DB put files in L0")
	}
	if db.Tree().NumFiles(1) == 0 {
		t.Fatal("no single-level tables")
	}
	if db.Tree().GetStats().Compactions != 0 {
		t.Fatal("SLM-DB ran hierarchical compactions")
	}
}

func TestBTreeDirectedReads(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	n := 20000
	for i := 0; i < n; i++ {
		db.Put(th, []byte(fmt.Sprintf("key%08d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if db.Index().Len() == 0 {
		t.Fatal("B+-tree never indexed flushed tables")
	}
	// Reads on flushed data go through the B+-tree to exactly one table.
	for i := 0; i < n; i += 509 {
		k := []byte(fmt.Sprintf("key%08d", i))
		v, err := db.Get(th, k)
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, v, err)
		}
	}
}

func TestOverwriteAcrossTables(t *testing.T) {
	db, th := openDB(t, testMachine(), smallOpts(baseline.Vanilla))
	defer db.Close(th)
	// First generation flushed to a table.
	for i := 0; i < 5000; i++ {
		db.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte("old"))
	}
	db.FlushAll(th)
	// Overwrites flushed into a *different* overlapping table: the B+-tree
	// must point at the newer one.
	for i := 0; i < 5000; i++ {
		db.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte("new"))
	}
	db.FlushAll(th)
	for i := 0; i < 5000; i += 307 {
		v, err := db.Get(th, []byte(fmt.Sprintf("key%06d", i)))
		if err != nil || string(v) != "new" {
			t.Fatalf("stale read: %q, %v", v, err)
		}
	}
}
