package cachekv

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"cachekv/internal/core"
)

func TestWriteStallDeadlineValidation(t *testing.T) {
	if _, err := Open(Options{PMemMB: 1024, WriteStallDeadline: -1}); err == nil {
		t.Fatal("negative WriteStallDeadline accepted")
	}
}

// forceFlow pins every shard of db's engine to state st.
func forceFlow(db *DB, at int64, st core.FlowState) {
	switch e := db.inner.(type) {
	case *core.Engine:
		e.DebugForceFlowState(at, st)
	case *core.Sharded:
		for k := 0; k < e.Shards(); k++ {
			e.DebugForceFlowState(at, k, st)
		}
	}
}

// TestSessionSetWriteDeadline pins the per-session deadline contract on both
// engine shapes: a session inherits Options.WriteStallDeadline; under a forced
// Stop a tiny deadline fails Put, Delete, DeleteRange and a (cross-shard)
// Apply with ErrStalled, each fully absent; 0 restores blocking.
func TestSessionSetWriteDeadline(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			db, err := Open(Options{PMemMB: 1024, Shards: shards, WriteStallDeadline: 1_000})
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			s := db.Session(0)

			// Healthy engine: deadline-bounded writes succeed.
			keys := make([][]byte, 8)
			for i := range keys {
				keys[i] = []byte(fmt.Sprintf("k%02d", i))
				if err := s.Put(keys[i], []byte("v")); err != nil {
					t.Fatal(err)
				}
			}

			// The inherited Options.WriteStallDeadline already fails fast.
			forceFlow(db, s.VirtualNanos(), core.FlowStop)
			if err := s.Put([]byte("new0"), []byte("v")); !errors.Is(err, ErrStalled) {
				t.Fatalf("Put under Stop with the inherited deadline: %v", err)
			}
			if err := s.SetWriteDeadline(50); err != nil {
				t.Fatal(err)
			}
			if err := s.Put([]byte("new1"), []byte("v")); !errors.Is(err, ErrStalled) {
				t.Fatalf("Put under Stop: %v", err)
			}
			if err := s.Delete(keys[0]); !errors.Is(err, ErrStalled) {
				t.Fatalf("Delete under Stop: %v", err)
			}
			if err := s.DeleteRange([]byte("k"), []byte("l")); !errors.Is(err, ErrStalled) {
				t.Fatalf("DeleteRange under Stop: %v", err)
			}
			var b Batch
			for i, k := range keys { // eight keys: spans shards when there are four
				b.Put(k, []byte(fmt.Sprintf("batch%d", i)))
			}
			b.Put([]byte("new2"), []byte("v"))
			if err := s.Apply(&b); !errors.Is(err, ErrStalled) {
				t.Fatalf("Apply under Stop: %v", err)
			}
			snap := db.Registry().Gather()
			if n := snap.Int("flow_writes_rejected"); n != 5 {
				t.Fatalf("flow_writes_rejected = %d, want 5", n)
			}
			if st := snap.Float("flow_state"); st != float64(core.FlowStop) {
				t.Fatalf("flow_state = %v, want %d", st, core.FlowStop)
			}
			if n := snap.Int("flow_stop_entries"); n == 0 {
				t.Fatalf("flow_stop_entries = %d, want > 0", n)
			}
			// Every rejected write is fully absent.
			for _, k := range keys {
				if v, err := s.Get(k); err != nil || string(v) != "v" {
					t.Fatalf("Get(%s) after rejected writes = %q, %v", k, v, err)
				}
			}
			for _, k := range []string{"new0", "new1", "new2"} {
				if _, err := s.Get([]byte(k)); err != ErrNotFound {
					t.Fatalf("rejected key %s visible: %v", k, err)
				}
			}

			// Deadline 0 blocks in Stop until the state de-escalates.
			if err := s.SetWriteDeadline(0); err != nil {
				t.Fatal(err)
			}
			clearAt := s.VirtualNanos() + 1_000_000
			done := make(chan error, 1)
			go func() { done <- s.Put([]byte("blocked"), []byte("v")) }()
			for db.Registry().Gather().Int("flow_stop_waits") == 0 {
				runtime.Gosched()
			}
			forceFlow(db, clearAt, core.FlowOK)
			if err := <-done; err != nil {
				t.Fatalf("blocked Put after Stop cleared: %v", err)
			}
			if _, err := s.Get([]byte("blocked")); err != nil {
				t.Fatalf("blocked Put lost: %v", err)
			}
			if err := s.SetWriteDeadline(-1); err == nil {
				t.Fatal("negative write deadline accepted")
			}
		})
	}

	// Four shards, one in Stop and one in Slowdown: deadline writes to either
	// are rejected, and the store reports the worst shard's state and the
	// shards' summed rejections (with every shard in Stop, as above, a sum and
	// a max could not be told apart).
	t.Run("shards=4,stop+slowdown", func(t *testing.T) {
		db, err := Open(Options{PMemMB: 1024, Shards: 4, WriteStallDeadline: 1_000})
		if err != nil {
			t.Fatal(err)
		}
		defer db.Close()
		s := db.Session(0)
		sh := db.inner.(*core.Sharded)
		// Stop rejects at once; Slowdown's first token lies past any deadline.
		now := s.VirtualNanos()
		sh.DebugForceFlowState(now, 1, core.FlowStop)
		sh.DebugForceFlowState(now+1_000_000, 2, core.FlowSlowdown)
		want := map[int]int{1: 3, 2: 2} // rejections per shard
		for i := 0; want[1]+want[2] > 0; i++ {
			k := []byte(fmt.Sprintf("mixed%04d", i))
			shard := sh.ShardOf(k)
			left, throttled := want[shard]
			if throttled && left == 0 {
				continue
			}
			err := s.Put(k, []byte("v"))
			switch {
			case !throttled:
				if err != nil {
					t.Fatalf("Put to healthy shard %d: %v", shard, err)
				}
			case !errors.Is(err, ErrStalled):
				t.Fatalf("Put to throttled shard %d: %v, want ErrStalled", shard, err)
			default:
				want[shard]--
			}
		}
		snap := db.Registry().Gather()
		if st := snap.Float("flow_state"); st != float64(core.FlowStop) {
			t.Fatalf("flow_state = %v, want the worst shard's %d", st, core.FlowStop)
		}
		if stops, slows := snap.Int("flow_stop_entries"), snap.Int("flow_slowdown_entries"); stops != 1 || slows != 1 {
			t.Fatalf("state entries: %d Stop, %d Slowdown, want 1 each", stops, slows)
		}
		if n := snap.Int("flow_writes_rejected"); n != 5 {
			t.Fatalf("flow_writes_rejected = %d, want the shards' sum 5", n)
		}
	})
}

func TestSessionDeadlineUnsupportedEngine(t *testing.T) {
	db, err := Open(Options{Engine: EngineNoveLSM, PMemMB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	if err := s.SetWriteDeadline(1_000); err == nil {
		t.Fatal("SetWriteDeadline on novelsm succeeded")
	}
	var b Batch
	b.Put([]byte("k"), []byte("v"))
	if err := s.Apply(&b); err == nil {
		t.Fatal("Apply on novelsm succeeded")
	}
	if err := s.Put([]byte("k"), []byte("v")); err != nil {
		t.Fatalf("plain Put on novelsm: %v", err)
	}
}

// TestRegistryFlowMetrics asserts the flow-control surface is published by
// DB.Registry for both the classic and the sharded engine.
func TestRegistryFlowMetrics(t *testing.T) {
	names := []string{
		"flow_state",
		"flow_slowdown_entries",
		"flow_stop_entries",
		"flow_writes_delayed",
		"flow_delay_ns",
		"flow_writes_rejected",
		"flow_stop_waits",
		"flow_stop_wait_ns",
		"flow_dwell_ok_ns",
		"flow_dwell_slowdown_ns",
		"flow_dwell_stop_ns",
		"flow_backlog_bytes",
	}
	for _, shards := range []int{1, 4} {
		db, err := Open(Options{PMemMB: 1024, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		snap := db.Registry().Gather()
		for _, n := range names {
			if _, ok := snap.Get(n); !ok {
				t.Fatalf("shards=%d: metric %q missing from registry", shards, n)
			}
		}
		if shards > 1 {
			for k := 0; k < shards; k++ {
				if _, ok := snap.Get(fmt.Sprintf("shard%d_flow_state", k)); !ok {
					t.Fatalf("per-shard gauge shard%d_flow_state missing", k)
				}
			}
		}
		db.Close()
	}
}
