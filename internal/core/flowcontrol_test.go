package core

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"
)

// putBatch is the one-op batch a deadline-bounded Put rides through Write.
func putBatch(key, value []byte) *Batch {
	b := &Batch{}
	b.Put(key, value)
	return b
}

// testFlow builds a flowControl over a literal two-row table with injected
// readings, so the state machine can be driven without an engine behind it:
// L0 enters Slowdown at 4 / Stop at 8, exits at 3 / 6; backlog enters at
// 100 / 200 bytes, exits at 75 / 150. extra rows are appended.
func testFlow(extra ...flowSignal) (fc *flowControl, setL0 func(int), setBacklog func(uint64)) {
	var l0, backlog uint64
	rows := append([]flowSignal{
		{"l0_files", func() uint64 { return l0 }, 4, 3, 8, 6},
		{"backlog_bytes", func() uint64 { return backlog }, 100, 75, 200, 150},
	}, extra...)
	fc = newFlowControl(rows, 0, Options{})
	return fc, func(v int) { l0 = uint64(v) }, func(v uint64) { backlog = v }
}

func TestFlowTransitions(t *testing.T) {
	// Each step recomputes with the given signals and expects a state; the
	// sequence walks every threshold crossing in both directions, including
	// the held (hysteresis) values between exit and enter.
	steps := []struct {
		l0      int
		backlog uint64
		want    FlowState
		note    string
	}{
		{0, 0, FlowOK, "idle"},
		{3, 0, FlowOK, "below L0 slowdown enter"},
		{4, 0, FlowSlowdown, "L0 crosses slowdown enter"},
		{3, 0, FlowSlowdown, "held: at exit, above nothing new"},
		{2, 0, FlowOK, "below L0 slowdown exit"},
		{8, 0, FlowStop, "L0 crosses stop enter"},
		{7, 0, FlowStop, "held: between stop exit and enter"},
		{6, 0, FlowStop, "held: at stop exit"},
		{5, 0, FlowSlowdown, "below stop exit, still above slowdown enter"},
		{0, 0, FlowOK, "drained"},
		{0, 100, FlowSlowdown, "backlog crosses slowdown enter"},
		{0, 80, FlowSlowdown, "held: backlog between exit and enter"},
		{0, 200, FlowStop, "backlog crosses stop enter"},
		{0, 160, FlowStop, "held: backlog between stop exit and enter"},
		{0, 140, FlowSlowdown, "backlog below stop exit"},
		{0, 10, FlowOK, "backlog drained"},
		{4, 190, FlowSlowdown, "both signals in slowdown band take the max"},
		{9, 0, FlowStop, "single signal suffices for stop"},
		{0, 0, FlowOK, "reset"},
	}
	fc, setL0, setBacklog := testFlow()
	var now int64
	for i, s := range steps {
		now += 10
		setL0(s.l0)
		setBacklog(s.backlog)
		fc.recompute(now, "test")
		if got := fc.current(); got != s.want {
			t.Fatalf("step %d (%s): l0=%d backlog=%d: state %v, want %v",
				i, s.note, s.l0, s.backlog, got, s.want)
		}
	}
	st := fc.snapshot()
	if st.SlowdownEntries == 0 || st.StopEntries == 0 {
		t.Fatalf("entry counters not advanced: %+v", st)
	}
	if st.DwellSlowdownNs == 0 || st.DwellStopNs == 0 || st.DwellOKNs == 0 {
		t.Fatalf("dwell accounting missing: %+v", st)
	}
}

func TestFlowDisabledSignalNeverTriggers(t *testing.T) {
	// A zero enter bound disables the row entirely — it must neither enter nor
	// hold a state, whatever its exit bounds say.
	fc, _, _ := testFlow(flowSignal{name: "off", read: func() uint64 { return 1 << 40 },
		slowExit: 1, stopExit: 1}) // must not resurrect it
	fc.recompute(10, "test")
	if got := fc.current(); got != FlowOK {
		t.Fatalf("disabled signal drove state to %v", got)
	}
	// Nor may it hold a state another row entered and has since left.
	fc, setL0, _ := testFlow(flowSignal{name: "off", read: func() uint64 { return 1 << 40 },
		slowExit: 1, stopExit: 1})
	setL0(8)
	fc.recompute(10, "test")
	setL0(0)
	fc.recompute(20, "test")
	if got := fc.current(); got != FlowOK {
		t.Fatalf("disabled signal held state %v", got)
	}
}

func TestFlowHysteresisNoFlap(t *testing.T) {
	// Oscillating between the enter threshold and the exit band must produce
	// exactly one Slowdown entry, not one per oscillation.
	fc, setL0, _ := testFlow()
	var now int64
	setL0(4)
	now += 10
	fc.recompute(now, "test")
	for i := 0; i < 50; i++ {
		setL0(3) // at exit threshold: held
		now += 10
		fc.recompute(now, "test")
		setL0(4)
		now += 10
		fc.recompute(now, "test")
		if fc.current() != FlowSlowdown {
			t.Fatalf("iteration %d: state %v", i, fc.current())
		}
	}
	if n := fc.snapshot().SlowdownEntries; n != 1 {
		t.Fatalf("flapped: %d slowdown entries, want 1", n)
	}
}

func TestFlowWALSignal(t *testing.T) {
	var wal uint64
	fc, _, _ := testFlow(flowSignal{"wal_bytes", func() uint64 { return wal }, 1000, 500, 2000, 1500})
	wal = 1000
	fc.recompute(10, "test")
	if fc.current() != FlowSlowdown {
		t.Fatalf("wal slowdown enter: %v", fc.current())
	}
	wal = 2000
	fc.recompute(20, "test")
	if fc.current() != FlowStop {
		t.Fatalf("wal stop enter: %v", fc.current())
	}
	wal = 1600 // between stop exit (1500) and enter: held
	fc.recompute(30, "test")
	if fc.current() != FlowStop {
		t.Fatalf("wal stop hold: %v", fc.current())
	}
	wal = 400 // below slowdown exit (500)
	fc.recompute(40, "test")
	if fc.current() != FlowOK {
		t.Fatalf("wal drained: %v", fc.current())
	}
}

func TestFlowSlowdownTokenPacing(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	fc, setL0, _ := testFlow()
	setL0(4)
	fc.recompute(th.Clock.Now(), "test")

	// First admit takes the transition-time token without waiting; each
	// subsequent admit waits one refill interval, and the interval doubles up
	// to the cap — so the inter-admission gaps must be the base, 2x, 4x, ...
	// capped sequence.
	const admits = 10 // enough doublings of the 2 µs base to reach the 2^18 ns cap
	if err := fc.admit(th, 0); err != nil {
		t.Fatal(err)
	}
	if d := fc.snapshot().DelayedWrites; d != 0 {
		t.Fatalf("first token should be free, delayed=%d", d)
	}
	wantGap := int64(slowdownBaseDelay)
	prev := th.Clock.Now()
	for i := 0; i < admits; i++ {
		if err := fc.admit(th, 0); err != nil {
			t.Fatal(err)
		}
		gap := th.Clock.Now() - prev
		if gap != wantGap {
			t.Fatalf("admit %d: gap %d, want %d", i, gap, wantGap)
		}
		prev = th.Clock.Now()
		wantGap = min(2*wantGap, slowdownMaxDelay)
	}
	if wantGap != slowdownMaxDelay {
		t.Fatalf("pacing never reached the cap: next gap %d", wantGap)
	}
	st := fc.snapshot()
	if st.DelayedWrites != admits || st.DelayedNs == 0 {
		t.Fatalf("delay accounting: %+v", st)
	}
}

func TestFlowSlowdownDeadlineRejectKeepsToken(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	fc, setL0, _ := testFlow()
	setL0(4)
	fc.recompute(th.Clock.Now(), "test")
	// Burn tokens so the next slot is well in the future.
	for i := 0; i < 5; i++ {
		if err := fc.admit(th, 0); err != nil {
			t.Fatal(err)
		}
	}
	fc.mu.Lock()
	tokenBefore := fc.nextTokenV
	fc.mu.Unlock()
	th2 := m.NewThread(1) // fresh clock, far behind the token queue
	if err := fc.countStall(fc.admit(th2, th2.Clock.Now()+1)); err == nil || !errors.Is(err, ErrStalled) {
		t.Fatalf("admit past deadline: %v, want ErrStalled", err)
	}
	fc.mu.Lock()
	tokenAfter := fc.nextTokenV
	fc.mu.Unlock()
	if tokenAfter != tokenBefore {
		t.Fatalf("rejected write consumed a token: %d -> %d", tokenBefore, tokenAfter)
	}
	if fc.snapshot().RejectedWrites != 1 {
		t.Fatalf("rejection not counted: %+v", fc.snapshot())
	}
}

func TestFlowStopFastFailAndLegacyBlock(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	fc, setL0, _ := testFlow()
	setL0(8)
	fc.recompute(th.Clock.Now(), "test")

	// A deadline write fails fast without blocking.
	if err := fc.countStall(fc.admit(th, th.Clock.Now()+1_000_000)); !errors.Is(err, ErrStalled) {
		t.Fatalf("deadline admit in Stop: %v, want ErrStalled", err)
	}

	// A legacy (deadline 0) write blocks until the state de-escalates.
	th2 := m.NewThread(1)
	done := make(chan error, 1)
	go func() { done <- fc.admit(th2, 0) }()
	for fc.snapshot().StopWaits == 0 { // until the writer is parked
		runtime.Gosched()
	}
	select {
	case err := <-done:
		t.Fatalf("legacy admit returned during Stop: %v", err)
	default:
	}
	setL0(0)
	fc.recompute(th.Clock.Now()+500, "test")
	if err := <-done; err != nil {
		t.Fatalf("legacy admit after de-escalation: %v", err)
	}
	st := fc.snapshot()
	if st.StopWaits != 1 || st.RejectedWrites != 1 {
		t.Fatalf("stop accounting: %+v", st)
	}
}

func TestFlowAbortWakesLegacyWaiter(t *testing.T) {
	m := testMachine()
	fc, setL0, _ := testFlow()
	setL0(8)
	fc.recompute(10, "test")
	th2 := m.NewThread(1)
	done := make(chan error, 1)
	go func() { done <- fc.admit(th2, 0) }()
	fc.abort()
	if err := <-done; err != nil {
		t.Fatalf("admit after abort: %v (engine error surfaces elsewhere)", err)
	}
}

func TestFlowEngineDeadlineUnderForcedStop(t *testing.T) {
	e, th := openEngine(t, testMachine(), smallOpts())
	defer e.Close(th)

	if err := e.Put(th, []byte("before"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	e.DebugForceFlowState(th.Clock.Now(), FlowStop)
	if got := e.FlowState(); got != FlowStop {
		t.Fatalf("forced state: %v", got)
	}
	err := e.Write(th, putBatch([]byte("stalled"), []byte("v")), 1_000)
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("Put under Stop: %v, want ErrStalled", err)
	}
	var b Batch
	b.Delete([]byte("before"))
	if err := e.Write(th, &b, 1_000); !errors.Is(err, ErrStalled) {
		t.Fatalf("Delete under Stop: %v, want ErrStalled", err)
	}
	b.Reset()
	b.Put([]byte("batch"), []byte("v"))
	if err := e.Write(th, &b, 1_000); !errors.Is(err, ErrStalled) {
		t.Fatalf("batch under Stop: %v, want ErrStalled", err)
	}

	// The rejected writes left nothing behind, and the pre-stall key survived.
	e.flow.forceOff()
	e.flow.recompute(th.Clock.Now(), "test")
	if got := e.FlowState(); got != FlowOK {
		t.Fatalf("state after unforce: %v", got)
	}
	if _, err := e.Get(th, []byte("stalled")); err == nil {
		t.Fatal("stalled put is visible")
	}
	if _, err := e.Get(th, []byte("batch")); err == nil {
		t.Fatal("stalled batch is visible")
	}
	if v, err := e.Get(th, []byte("before")); err != nil || string(v) != "v" {
		t.Fatalf("pre-stall key: %q, %v", v, err)
	}
	if err := e.Put(th, []byte("after"), []byte("v")); err != nil {
		t.Fatalf("put after recovery from Stop: %v", err)
	}
	if e.FlowStats().RejectedWrites != 3 {
		t.Fatalf("rejection count: %+v", e.FlowStats())
	}
}

func TestFlowPerShardIndependence(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)

	// Pin shard 1 to Stop; writes routed there stall, every other shard
	// admits freely, and the aggregate state reports the most severe shard.
	sh.DebugForceFlowState(th.Clock.Now(), 1, FlowStop)
	if got := sh.FlowState(); got != FlowStop {
		t.Fatalf("aggregate state: %v", got)
	}
	var stalled, admitted int
	for i := 0; i < 200; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		err := sh.Write(th, putBatch(k, []byte("v")), 1_000)
		switch {
		case err == nil:
			if sh.ShardOf(k) == 1 {
				t.Fatalf("write to stopped shard 1 admitted: %s", k)
			}
			admitted++
		case errors.Is(err, ErrStalled):
			if got := sh.ShardOf(k); got != 1 {
				t.Fatalf("write to healthy shard %d stalled: %s", got, k)
			}
			stalled++
		default:
			t.Fatal(err)
		}
	}
	if stalled == 0 || admitted == 0 {
		t.Fatalf("keys did not cover both halves: stalled=%d admitted=%d", stalled, admitted)
	}
	for _, e := range sh.shards {
		e.flow.forceOff()
		e.flow.recompute(th.Clock.Now(), "test")
	}
	if got := sh.FlowState(); got != FlowOK {
		t.Fatalf("aggregate state after unforce: %v", got)
	}
	if err := sh.Put(th, []byte("post"), []byte("v")); err != nil {
		t.Fatal(err)
	}
	if st := sh.FlowStats(); st.RejectedWrites != int64(stalled) {
		t.Fatalf("aggregate rejections %d, want %d", st.RejectedWrites, stalled)
	}
}

func TestFlowCrossShardBatchDeadline(t *testing.T) {
	m := testMachine()
	sh, th := openSharded(t, m, smallShardedOpts(4))
	defer sh.Close(th)

	// Find keys on two different shards, then stop one of them: the
	// cross-shard batch must be rejected before any prepare record exists,
	// leaving both keys absent.
	var k0, k1 []byte
	for i := 0; k0 == nil || k1 == nil; i++ {
		k := []byte(fmt.Sprintf("xkey%06d", i))
		switch sh.ShardOf(k) {
		case 0:
			if k0 == nil {
				k0 = k
			}
		case 1:
			if k1 == nil {
				k1 = k
			}
		}
	}
	sh.DebugForceFlowState(th.Clock.Now(), 1, FlowStop)
	var b Batch
	b.Put(k0, []byte("v0"))
	b.Put(k1, []byte("v1"))
	if err := sh.Write(th, &b, 1_000); !errors.Is(err, ErrStalled) {
		t.Fatalf("cross-shard batch with a stopped participant: %v, want ErrStalled", err)
	}
	if _, err := sh.Get(th, k0); err == nil {
		t.Fatal("rejected batch leaked a key on the healthy shard")
	}
	if _, err := sh.Get(th, k1); err == nil {
		t.Fatal("rejected batch leaked a key on the stopped shard")
	}
	// After release the same batch commits whole.
	for _, e := range sh.shards {
		e.flow.forceOff()
	}
	sh.shards[1].flow.recompute(th.Clock.Now(), "test")
	if err := sh.Write(th, &b, 1_000_000); err != nil {
		t.Fatalf("batch after release: %v", err)
	}
	for _, k := range [][]byte{k0, k1} {
		if _, err := sh.Get(th, k); err != nil {
			t.Fatalf("committed batch key %s: %v", k, err)
		}
	}
}

func TestFlowPoolAcquireDeadline(t *testing.T) {
	// With flow control disabled and a pool of one small slot per engine, a
	// write that cannot get a slot before its deadline must stall instead of
	// blocking forever — exercised through Write so the admission fast path
	// stays out of the way. A copy-based flush costs 250 virtual µs before its
	// first byte, so a 50 ns deadline cannot outlast one: every seal stalls the
	// writer behind it. Every ErrStalled that leaves Write is counted once,
	// though none of these comes from admission.
	for _, shards := range []int{1, 2} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			o := smallOpts()
			o.DisableFlowControl = true
			o.PoolBytes = uint64(shards) * 256 << 10 // one 128 KiB slot per engine
			o.FlushThreads = 1
			o.Shards = shards
			m := testMachine()
			th := m.NewThread(0)
			db, err := Open(m, o, th)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(th)

			val := make([]byte, 4<<10)
			var stalls int64
			for i := 0; i < 2000; i++ {
				err := db.Write(th, putBatch([]byte(fmt.Sprintf("k%06d", i)), val), 50)
				if errors.Is(err, ErrStalled) {
					stalls++
				} else if err != nil {
					t.Fatal(err)
				}
			}
			if stalls == 0 {
				t.Fatal("no write stalled on the slot wait")
			}
			if got := db.FlowStats().RejectedWrites; got != stalls {
				t.Fatalf("flow_writes_rejected = %d, want the %d ErrStalled returns", got, stalls)
			}
			// The engine must still accept unbounded writes afterwards.
			if err := db.Put(th, []byte("tail"), []byte("v")); err != nil {
				t.Fatalf("legacy write after deadline traffic: %v", err)
			}
			if v, err := db.Get(th, []byte("tail")); err != nil || string(v) != "v" {
				t.Fatalf("tail read: %q %v", v, err)
			}
		})
	}
}

// TestFlowDefaultsPinned pins the flow table a store derives from its
// budgets: the sixteen enter/exit bounds and the two pacing constants,
// recorded from the threshold-option defaults of the commit the table
// replaced them at, for the three geometries that matter — the paper's
// defaults, the same split over two shards (what the ledger's mixed workload
// runs), and cmd/torture's engineOptions at four shards.
func TestFlowDefaultsPinned(t *testing.T) {
	if slowdownBaseDelay != 2_000 || slowdownMaxDelay != 262_144 {
		t.Fatalf("token pacing %d..%d ns, want 2000..262144", slowdownBaseDelay, slowdownMaxDelay)
	}
	torture := DefaultOptions()
	torture.FSBytes = 256 << 20
	torture.PoolBytes = 4 << 20
	torture.SubMemTableBytes = 256 << 10
	torture.ImmZoneBytes = 8 << 20
	type row struct {
		name                           string
		slow, slowExit, stop, stopExit uint64
	}
	l0 := row{"l0_files", 8, 6, 16, 12}
	debt := row{"debt_bytes", 8388608, 4194304, 33554432, 25165824}
	wal := row{"wal_bytes", 393216, 196608, 491520, 368640}
	for _, tc := range []struct {
		name   string
		opts   Options
		shards int
		want   []row
	}{
		{"default", DefaultOptions(), 1,
			[]row{l0, {"backlog_bytes", 28521267, 21390950, 36909875, 27682406}, debt}},
		{"default-shards2", DefaultOptions(), 2,
			[]row{l0, {"backlog_bytes", 14260633, 10695474, 18454937, 13841202}, debt, wal}},
		{"torture-shards4", torture, 4,
			[]row{l0, {"backlog_bytes", 1782579, 1336934, 2306867, 1730150}, debt, wal}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := testMachine()
			th := m.NewThread(0)
			tc.opts.Shards = tc.shards
			db, err := Open(m, tc.opts, th)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close(th)
			var engines []*Engine
			switch s := db.(type) {
			case *Engine:
				engines = []*Engine{s}
			case *Sharded:
				engines = s.shards
			}
			if len(engines) != tc.shards {
				t.Fatalf("%d engines, want %d", len(engines), tc.shards)
			}
			for k, e := range engines {
				var got []row
				for _, s := range e.flow.signals {
					got = append(got, row{s.name, s.slow, s.slowExit, s.stop, s.stopExit})
				}
				if !reflect.DeepEqual(got, tc.want) {
					t.Errorf("shard %d flow table:\n got %v\nwant %v", k, got, tc.want)
				}
			}
		})
	}
}

func TestFlowStateString(t *testing.T) {
	for s, want := range map[FlowState]string{
		FlowOK: "ok", FlowSlowdown: "slowdown", FlowStop: "stop", FlowState(9): "invalid",
	} {
		if got := s.String(); got != want {
			t.Fatalf("FlowState(%d).String() = %q, want %q", s, got, want)
		}
	}
}
