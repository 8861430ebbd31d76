package cachekv

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"cachekv/internal/hw/pmem"
)

// writesOf is the part of a device snapshot that only a store moves: a
// recovering job still reads the media directly.
func writesOf(s pmem.CountersSnapshot) pmem.CountersSnapshot {
	s.MediaReadB = 0
	return s
}

// TestSimulateCrashCutsWorkInFlight: the power fails while a session writes
// and a compaction round runs. Both keep going past the crash — the writer
// even sees its Puts acknowledged — yet from Crash on nothing they do reaches
// the media: the device's write counters stand still while the cache refuses
// their stores. SimulateCrash, finding the power already off, stops them and
// recovers every write acknowledged before the crash, and no write that was
// never issued.
func TestSimulateCrashCutsWorkInFlight(t *testing.T) {
	db, err := Open(Options{PMemMB: 512, CompactionWorkers: 2, SubMemTableKB: 256, tune: smallGeometry})
	if err != nil {
		t.Fatal(err)
	}
	key := func(i int64) []byte { return []byte(fmt.Sprintf("key%08d", i*7919%1000003)) }
	val := func(i int64) []byte { return fmt.Appendf(make([]byte, 0, 512), "v%08d%0500d", i, 0) }

	// acked counts the Puts acknowledged so far; issued the Puts begun.
	var acked, issued atomic.Int64
	stop, exited := make(chan struct{}), make(chan error, 1)
	go func() {
		s := db.Session(1)
		for i := int64(0); ; i++ {
			select {
			case <-stop:
				exited <- nil
				return
			default:
			}
			issued.Store(i + 1)
			if err := s.Put(key(i), val(i)); err != nil {
				exited <- err // the dead store failed, or the crash-stop reached it
				return
			}
			acked.Store(i + 1)
		}
	}()
	defer close(stop)

	// Crash while a compaction runs.
	m := db.machine
	deadline := time.Now().Add(time.Minute)
	for db.Registry().Gather().Float("compact_running") == 0 || acked.Load() < 20000 {
		if time.Now().After(deadline) {
			t.Fatalf("no compaction running after %d writes", acked.Load())
		}
		time.Sleep(50 * time.Microsecond)
	}
	durable := acked.Load()
	m.Crash()
	before := writesOf(m.PMem.Snapshot())

	// The writer and the compaction go on, the cache refusing what they store,
	// until the dead engine trips over what it failed to store or SimulateCrash
	// stops it.
	for m.Cache.Stats().PostCrashStores < 1000 && len(exited) == 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Microsecond)
	}
	if m.Cache.Stats().PostCrashStores == 0 {
		t.Fatal("nothing stored after the crash: the writer and the compaction were not running")
	}
	if after := writesOf(m.PMem.Snapshot()); after != before {
		t.Fatalf("a store reached the device after Crash:\n before %+v\n after  %+v", before, after)
	}

	ndb, err := db.SimulateCrash()
	if err != nil {
		t.Fatal(err)
	}
	defer ndb.Close()
	if err := <-exited; err == nil {
		t.Fatal("the writer outlived SimulateCrash")
	}
	s := ndb.Session(0)
	n := issued.Load()
	for i := int64(0); i < n+100; i++ {
		v, err := s.Get(key(i))
		switch {
		case i < durable && (err != nil || string(v) != string(val(i))):
			t.Fatalf("write %d of %d acknowledged before the crash recovered as %.9q, %v", i, durable, v, err)
		case i >= n && err != ErrNotFound:
			t.Fatalf("write %d was never issued, yet recovered as %.9q, %v", i, v, err)
		case err == nil && string(v) != string(val(i)):
			t.Fatalf("write %d recovered as %.9q", i, v)
		case err != nil && err != ErrNotFound:
			t.Fatalf("write %d: %v", i, err)
		}
	}
}
