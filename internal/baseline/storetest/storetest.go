// Package storetest is the behaviour both baseline engines share, written
// once: each case runs against a baseline.Store, and each engine's tests run
// every case on its three variants (Run), which covers the six baseline
// systems. Only what one engine adds is tested in its own package.
package storetest

import (
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/baseline"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
)

// Engine is a baseline engine under test.
type Engine struct {
	Name string // display name of its vanilla variant
	// Open opens variant v on m, sized so that a few thousand small writes
	// rotate its MemTables.
	Open func(m *hw.Machine, th *hw.Thread, v baseline.Variant) (*baseline.Store, error)
}

// A Case is one shared behaviour, checked on one variant of an engine.
type Case func(t *testing.T, e Engine, v baseline.Variant)

// Run runs c on each of e's variants, as subtests "variant", "variant-w/o-flush"
// and "variant-cache".
func Run(t *testing.T, e Engine, c Case) {
	for _, v := range []baseline.Variant{baseline.Vanilla, baseline.WithoutFlush, baseline.CacheSegments} {
		t.Run("variant"+v.Suffix(), func(t *testing.T) { c(t, e, v) })
	}
}

func machine() *hw.Machine {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	return hw.NewMachine(cfg)
}

func open(t *testing.T, e Engine, m *hw.Machine, v baseline.Variant) (*baseline.Store, *hw.Thread) {
	t.Helper()
	th := m.NewThread(0)
	s, err := e.Open(m, th, v)
	if err != nil {
		t.Fatal(err)
	}
	return s, th
}

// PutGet reads back writes that rotated through several MemTables.
func PutGet(t *testing.T, e Engine, v baseline.Variant) {
	s, th := open(t, e, machine(), v)
	defer s.Close(th)
	for i := 0; i < 2000; i++ {
		if err := s.Put(th, []byte(fmt.Sprintf("key%06d", i)), []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2000; i += 37 {
		k := []byte(fmt.Sprintf("key%06d", i))
		if got, err := s.Get(th, k); err != nil || string(got) != fmt.Sprintf("v%d", i) {
			t.Fatalf("Get(%s) = %q, %v", k, got, err)
		}
	}
	if _, err := s.Get(th, []byte("missing")); err != kvstore.ErrNotFound {
		t.Fatalf("missing key: %v", err)
	}
}

// Name is the engine's display name with the variant's suffix.
func Name(t *testing.T, e Engine, v baseline.Variant) {
	s, th := open(t, e, machine(), v)
	defer s.Close(th)
	if want := e.Name + v.Suffix(); s.Name() != want {
		t.Fatalf("Name() = %s, want %s", s.Name(), want)
	}
}

// DeleteOverwrite: the newest version wins, in a MemTable and across a
// flush, and a tombstone hides flushed data and survives its own flush.
func DeleteOverwrite(t *testing.T, e Engine, v baseline.Variant) {
	s, th := open(t, e, machine(), v)
	defer s.Close(th)
	s.Put(th, []byte("k"), []byte("v1"))
	s.Put(th, []byte("k"), []byte("v2"))
	if got, err := s.Get(th, []byte("k")); err != nil || string(got) != "v2" {
		t.Fatalf("overwrite: %q, %v", got, err)
	}
	s.FlushAll(th)
	s.Delete(th, []byte("k"))
	if _, err := s.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatalf("delete over flushed data: %v", err)
	}
	s.FlushAll(th)
	if _, err := s.Get(th, []byte("k")); err != kvstore.ErrNotFound {
		t.Fatalf("tombstone lost in flush: %v", err)
	}
}

// Scan merges the MemTables over the tree: rows in key order from the start
// key, the newest version of each.
func Scan(t *testing.T, e Engine, v baseline.Variant) {
	s, th := open(t, e, machine(), v)
	defer s.Close(th)
	for i := 0; i < 1000; i++ {
		s.Put(th, []byte(fmt.Sprintf("k%05d", i)), []byte("v"))
	}
	s.FlushAll(th)
	for i := 500; i < 600; i++ {
		s.Put(th, []byte(fmt.Sprintf("k%05d", i)), []byte("v2"))
	}
	var keys []string
	sawNew := false
	n, err := s.Scan(th, []byte("k00490"), 30, func(k, v []byte) bool {
		keys = append(keys, string(k))
		sawNew = sawNew || string(k) == "k00500" && string(v) == "v2"
		return true
	})
	if err != nil || n != 30 || len(keys) != 30 {
		t.Fatalf("scan: %d rows, %v", n, err)
	}
	if keys[0] != "k00490" || keys[29] != "k00519" {
		t.Fatalf("scan keys: %v", keys)
	}
	if !sawNew {
		t.Fatal("scan returned a stale version")
	}
}

// ConcurrentWriters: writers on four threads lose nothing and serialize on
// the shared MemTable lock (Ob2).
func ConcurrentWriters(t *testing.T, e Engine, v baseline.Variant) {
	m := machine()
	s, th := open(t, e, m, v)
	defer s.Close(th)
	var wg sync.WaitGroup
	const writers, perW = 4, 2000
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wth := m.NewThread(w)
			for i := 0; i < perW; i++ {
				if err := s.Put(wth, []byte(fmt.Sprintf("w%d-%05d", w, i)), []byte("v")); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	acq, waited := s.MemTableLock().Stats()
	if acq != writers*perW {
		t.Fatalf("lock acquisitions = %d", acq)
	}
	if waited == 0 {
		t.Fatal("concurrent writers never waited on the shared MemTable lock")
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < perW; i += 331 {
			if _, err := s.Get(th, []byte(fmt.Sprintf("w%d-%05d", w, i))); err != nil {
				t.Fatalf("lost w%d-%05d: %v", w, i, err)
			}
		}
	}
}

// CrashRecovery: every acknowledged write survives a power failure, from
// the tree and from the entry logs of the tables still in memory.
func CrashRecovery(t *testing.T, e Engine, v baseline.Variant) {
	m := machine()
	s, th := open(t, e, m, v)
	const n = 12000
	val := func(i int) string { return fmt.Sprintf("%032d", i) }
	for i := 0; i < n; i++ {
		if err := s.Put(th, []byte(fmt.Sprintf("key%08d", i)), []byte(val(i))); err != nil {
			t.Fatal(err)
		}
	}
	// Stop the dead store before the power comes back: its flush job would
	// otherwise race the recovery below on the host.
	m.Crash()
	if err := s.Close(th); err == nil {
		t.Fatal("Close on a crashed machine reported no failure")
	}
	m.Recover()
	s2, th2 := open(t, e, m, v)
	defer s2.Close(th2)
	for i := 0; i < n; i += 101 {
		k := []byte(fmt.Sprintf("key%08d", i))
		if got, err := s2.Get(th2, k); err != nil || string(got) != val(i) {
			t.Fatalf("recovered %s = %q, %v", k, got, err)
		}
	}
}

// FlushAllIdempotent: a second FlushAll with nothing to flush returns at once
// and loses nothing.
func FlushAllIdempotent(t *testing.T, e Engine, v baseline.Variant) {
	s, th := open(t, e, machine(), v)
	defer s.Close(th)
	s.Put(th, []byte("k"), []byte("v"))
	for range 2 {
		if err := s.FlushAll(th); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := s.Get(th, []byte("k")); err != nil || string(got) != "v" {
		t.Fatalf("after FlushAll: %q, %v", got, err)
	}
}
