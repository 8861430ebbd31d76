package core

import (
	"fmt"
	"testing"

	"cachekv/internal/kvstore"
)

func TestBatchBasic(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	var b Batch
	for i := 0; i < 100; i++ {
		b.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("v%d", i)))
	}
	if b.Len() != 100 {
		t.Fatalf("Len = %d", b.Len())
	}
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		v, err := e.Get(th, []byte(fmt.Sprintf("k%03d", i)))
		if err != nil || string(v) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get k%03d = %q, %v", i, v, err)
		}
	}
}

func TestBatchWithDeletes(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	e.Put(th, []byte("old"), []byte("v"))
	var b Batch
	b.Put([]byte("new"), []byte("x"))
	b.Delete([]byte("old"))
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(th, []byte("old")); err != kvstore.ErrNotFound {
		t.Fatalf("deleted key: %v", err)
	}
	if v, _ := e.Get(th, []byte("new")); string(v) != "x" {
		t.Fatalf("new key: %q", v)
	}
}

func TestBatchEmptyAndReset(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)
	var b Batch
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	b.Put([]byte("k"), []byte("v"))
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not clear")
	}
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatal("reset batch still applied")
	}
}

func TestBatchTooLarge(t *testing.T) {
	opts := smallOpts()
	opts.SubMemTableBytes = 64 << 10
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	var b Batch
	for i := 0; i < 2000; i++ {
		b.Put([]byte(fmt.Sprintf("k%06d", i)), make([]byte, 64))
	}
	if err := e.Write(th, &b, 0); err == nil {
		t.Fatal("oversized batch accepted")
	}
}

func TestBatchAtomicAcrossCrash(t *testing.T) {
	// Every applied batch must be fully visible after a crash; the partial
	// batch (appended but never committed) must be fully invisible. We can't
	// interrupt a CAS mid-flight, but we can verify committed batches
	// survive whole.
	m := testMachine()
	opts := smallOpts()
	e, th := openEngine(t, m, opts)
	for n := 0; n < 50; n++ {
		var b Batch
		for i := 0; i < 20; i++ {
			b.Put([]byte(fmt.Sprintf("b%03d-%02d", n, i)), []byte(fmt.Sprintf("v%d", n)))
		}
		if err := e.Write(th, &b, 0); err != nil {
			t.Fatal(err)
		}
	}
	e2, th2 := crashAndReopen(t, e, opts)
	defer e2.Close(th2)
	for n := 0; n < 50; n++ {
		for i := 0; i < 20; i++ {
			k := []byte(fmt.Sprintf("b%03d-%02d", n, i))
			v, err := e2.Get(th2, k)
			if err != nil || string(v) != fmt.Sprintf("v%d", n) {
				t.Fatalf("batch %d entry %d lost: %q, %v", n, i, v, err)
			}
		}
	}
}

func TestBatchSealsWhenFull(t *testing.T) {
	opts := smallOpts()
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	// Many medium batches must roll over sub-MemTables transparently.
	for n := 0; n < 200; n++ {
		var b Batch
		for i := 0; i < 50; i++ {
			b.Put([]byte(fmt.Sprintf("n%04d-%02d", n, i)), make([]byte, 60))
		}
		if err := e.Write(th, &b, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.FlushAll(th); err != nil { // drain the async flush pipeline
		t.Fatal(err)
	}
	if e.stats.Flushes.Load() == 0 {
		t.Fatal("no seals despite writing far past one sub-MemTable")
	}
	if v, err := e.Get(th, []byte("n0150-25")); err != nil || len(v) != 60 {
		t.Fatalf("mid-rollover batch entry: %v", err)
	}
}

func TestBatchPCSMEagerIndex(t *testing.T) {
	opts := smallOpts()
	opts.LazyIndex = false
	opts.SkiplistCompaction = false
	e, th := openEngine(t, testMachine(), opts)
	defer e.Close(th)
	var b Batch
	for i := 0; i < 300; i++ {
		b.Put([]byte(fmt.Sprintf("k%04d", i)), []byte("v"))
	}
	if err := e.Write(th, &b, 0); err != nil {
		t.Fatal(err)
	}
	// PCSM reads never sync lazily; the eager index must already cover the
	// batch.
	for i := 0; i < 300; i += 17 {
		if _, err := e.Get(th, []byte(fmt.Sprintf("k%04d", i))); err != nil {
			t.Fatalf("eager index missed batch entry: %v", err)
		}
	}
	if e.stats.ReadSyncs.Load() != 0 {
		t.Fatal("PCSM performed lazy syncs")
	}
}
