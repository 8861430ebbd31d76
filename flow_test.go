package cachekv

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
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
			m := db.Metrics()
			if m.WritesRejected != 5 {
				t.Fatalf("WritesRejected = %d, want 5", m.WritesRejected)
			}
			if m.StallState != int64(core.FlowStop) {
				t.Fatalf("StallState = %d, want %d", m.StallState, core.FlowStop)
			}
			if m.StallStops == 0 {
				t.Fatalf("StallStops = %d, want > 0", m.StallStops)
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
			for db.store.FlowStats().StopWaits == 0 {
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

// TestMetricsSubFlowFields checks the interval-delta contract by reflection:
// every int64 counter field subtracts, while StallState (a gauge, like the
// ratio fields) is carried from the newer snapshot.
func TestMetricsSubFlowFields(t *testing.T) {
	gauges := map[string]bool{
		"WriteHitRatio":      true,
		"WriteAmplification": true,
		"BlockCacheHitRatio": true,
		"StallState":         true,
	}
	var cur, prev Metrics
	cv := reflect.ValueOf(&cur).Elem()
	pv := reflect.ValueOf(&prev).Elem()
	tt := cv.Type()
	for i := 0; i < tt.NumField(); i++ {
		if tt.Field(i).Type.Kind() != reflect.Int64 {
			continue
		}
		cv.Field(i).SetInt(int64(100 + i))
		pv.Field(i).SetInt(int64(10 + i))
	}
	d := cur.Sub(prev)
	dv := reflect.ValueOf(d)
	for i := 0; i < tt.NumField(); i++ {
		f := tt.Field(i)
		if f.Type.Kind() != reflect.Int64 {
			continue
		}
		got := dv.Field(i).Int()
		want := int64(90) // 100+i - (10+i)
		if gauges[f.Name] {
			want = int64(100 + i) // carried, not subtracted
		}
		if got != want {
			t.Fatalf("Sub field %s = %d, want %d", f.Name, got, want)
		}
	}

	// The snapshot survives a JSON round-trip unchanged (report files embed
	// these structs verbatim).
	enc, err := json.Marshal(cur)
	if err != nil {
		t.Fatal(err)
	}
	var back Metrics
	if err := json.Unmarshal(enc, &back); err != nil {
		t.Fatal(err)
	}
	if back != cur {
		t.Fatalf("JSON round-trip mutated Metrics:\n got %+v\nwant %+v", back, cur)
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
