package cachekv

import (
	"fmt"
	"testing"
)

// scribble overwrites a buffer the store has been handed and given back.
func scribble(bufs ...[]byte) {
	for _, b := range bufs {
		for i := range b {
			b[i] = 0xEE
		}
	}
}

// TestOwnershipWriteBuffers: a write owns nothing of the caller's once it has
// returned. One key buffer and one value buffer serve every Put, Apply and
// Ingest and are overwritten after each call; every key then reads back the
// value it was written with, from the memory component and again from the
// tables a Flush leaves.
func TestOwnershipWriteBuffers(t *testing.T) {
	const n = 300
	name := func(op string, i int) string { return fmt.Sprintf("%s-key-%05d", op, i) }
	want := func(op string, i int) string { return fmt.Sprintf("%s-value-%d", op, i*i) }
	shapes := map[string]Options{
		"sharded": {PMemMB: 1024, Shards: 2},
	}
	for _, eng := range []Engine{
		EngineCacheKV, EnginePCSM, EnginePCSMLIU,
		EngineNoveLSM, EngineNoveLSMNoFlush, EngineNoveLSMCache,
		EngineSLMDB, EngineSLMDBNoFlush, EngineSLMDBCache,
	} {
		shapes[string(eng)] = Options{Engine: eng, PMemMB: 1024}
	}
	for shape, opts := range shapes {
		db, err := Open(opts)
		if err != nil {
			t.Fatalf("%s: %v", shape, err)
		}
		s := db.Session(0)
		ops := []string{"put"}
		var k, v []byte
		for i := 0; i < n; i++ {
			k, v = append(k[:0], name("put", i)...), append(v[:0], want("put", i)...)
			if err := s.Put(k, v); err != nil {
				t.Fatalf("%s: Put: %v", shape, err)
			}
			scribble(k, v)
		}
		if db.store != nil { // batches and ingest are CacheKV's
			ops = append(ops, "apply", "ingest")
			var b Batch
			for i := 0; i < n; i++ {
				k, v = append(k[:0], name("apply", i)...), append(v[:0], want("apply", i)...)
				b.Put(k, v)
				scribble(k, v)
				if b.Len() == 4 || i == n-1 {
					if err := s.Apply(&b); err != nil {
						t.Fatalf("%s: Apply: %v", shape, err)
					}
					b.Reset()
				}
			}
			entries := make([]IngestEntry, n)
			for i := range entries {
				entries[i] = IngestEntry{Key: []byte(name("ingest", i)), Value: []byte(want("ingest", i))}
			}
			if err := s.Ingest(entries); err != nil {
				t.Fatalf("%s: Ingest: %v", shape, err)
			}
			for _, ent := range entries {
				scribble(ent.Key, ent.Value)
			}
		}
		for _, where := range []string{"memory component", "flushed tables"} {
			for _, op := range ops {
				for i := 0; i < n; i++ {
					if got, err := s.Get([]byte(name(op, i))); err != nil || string(got) != want(op, i) {
						t.Fatalf("%s, %s: Get(%s) = %q, %v; want %q", shape, where, name(op, i), got, err, want(op, i))
					}
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatalf("%s: Flush: %v", shape, err)
			}
		}
		db.Close()
	}
}

// TestOwnershipGetResult: the value a Get returns is the caller's — later
// operations on the same session, which reuse the thread's scratch, leave it
// alone.
func TestOwnershipGetResult(t *testing.T) {
	db, err := Open(Options{PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := 0; i < 100; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%03d", i)), []byte(fmt.Sprintf("value-%03d", i))); err != nil {
			t.Fatal(err)
		}
	}
	first, err := s.Get([]byte("k007"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if _, err := s.Get([]byte(fmt.Sprintf("k%03d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.Put([]byte("other"), []byte("another value altogether")); err != nil {
			t.Fatal(err)
		}
	}
	if string(first) != "value-007" {
		t.Fatalf("a returned value changed under later operations: %q", first)
	}
}
