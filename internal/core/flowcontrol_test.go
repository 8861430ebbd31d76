package core

import (
	"errors"
	"fmt"
	"runtime"
	"testing"
)

// putBatch is the one-op batch a deadline-bounded Put rides through Write.
func putBatch(key, value []byte) *Batch {
	b := &Batch{}
	b.Put(key, value)
	return b
}

// testFlow builds a flowControl with injected pressure signals so the state
// machine can be driven without a real engine behind it.
func testFlow(th FlowThresholds) (fc *flowControl, setL0 func(int), setBacklog func(uint64)) {
	var l0 int
	var backlog uint64
	o := DefaultOptions()
	o.Flow = th
	fc = newFlowControl(o, false,
		func() (int, int64) { return l0, 0 },
		func() uint64 { return backlog }, nil)
	return fc, func(v int) { l0 = v }, func(v uint64) { backlog = v }
}

// testThresholds: L0 enters Slowdown at 4 / Stop at 8, exits at 3 / 6;
// backlog enters at 100 / 200 bytes, exits at 75 / 150.
func testThresholds() FlowThresholds {
	return FlowThresholds{
		L0Slowdown: 4, L0Stop: 8, L0SlowdownExit: 3, L0StopExit: 6,
		BacklogSlowdown: 100, BacklogStop: 200,
		BacklogSlowdownExit: 75, BacklogStopExit: 150,
		SlowdownBaseDelay: 1_000, SlowdownMaxDelay: 8_000,
	}
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
	fc, setL0, setBacklog := testFlow(testThresholds())
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
	// A zero enter threshold disables the signal entirely — it must neither
	// enter nor hold a state. A zero zone keeps the derived backlog enter
	// thresholds at zero (withDefaults refills zeros otherwise).
	var backlog uint64
	o := DefaultOptions()
	o.ImmZoneBytes = 0
	o.Flow = FlowThresholds{
		L0Slowdown: 4, L0Stop: 8, L0SlowdownExit: 3, L0StopExit: 6,
		BacklogSlowdownExit: 1, BacklogStopExit: 1, // must not resurrect it
	}
	fc := newFlowControl(o, false,
		func() (int, int64) { return 0, 0 },
		func() uint64 { return backlog }, nil)
	setBacklog := func(v uint64) { backlog = v }
	setBacklog(1 << 40)
	fc.recompute(10, "test")
	if got := fc.current(); got != FlowOK {
		t.Fatalf("disabled backlog signal drove state to %v", got)
	}
}

func TestFlowHysteresisNoFlap(t *testing.T) {
	// Oscillating between the enter threshold and the exit band must produce
	// exactly one Slowdown entry, not one per oscillation.
	fc, setL0, _ := testFlow(testThresholds())
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
	fc, _, _ := testFlow(testThresholds())
	fc.setWALSignal(func() uint64 { return wal }, 1000, 2000)
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
	fc, setL0, _ := testFlow(testThresholds())
	setL0(4)
	fc.recompute(th.Clock.Now(), "test")

	// First admit takes the transition-time token without waiting; each
	// subsequent admit waits one refill interval, and the interval doubles up
	// to the cap — so the inter-admission gaps must be the base, 2x, 4x, ...
	// capped sequence.
	base := testThresholds().SlowdownBaseDelay
	max := testThresholds().SlowdownMaxDelay
	if err := fc.admit(th, 0); err != nil {
		t.Fatal(err)
	}
	if d := fc.snapshot().DelayedWrites; d != 0 {
		t.Fatalf("first token should be free, delayed=%d", d)
	}
	wantGap := base
	prev := th.Clock.Now()
	for i := 0; i < 6; i++ {
		if err := fc.admit(th, 0); err != nil {
			t.Fatal(err)
		}
		gap := th.Clock.Now() - prev
		if gap != wantGap {
			t.Fatalf("admit %d: gap %d, want %d", i, gap, wantGap)
		}
		prev = th.Clock.Now()
		wantGap *= 2
		if wantGap > max {
			wantGap = max
		}
	}
	st := fc.snapshot()
	if st.DelayedWrites != 6 || st.DelayedNs == 0 {
		t.Fatalf("delay accounting: %+v", st)
	}
}

func TestFlowSlowdownDeadlineRejectKeepsToken(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	fc, setL0, _ := testFlow(testThresholds())
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
	if err := fc.admit(th2, th2.Clock.Now()+1); err == nil || !errors.Is(err, ErrStalled) {
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
	fc, setL0, _ := testFlow(testThresholds())
	setL0(8)
	fc.recompute(th.Clock.Now(), "test")

	// A deadline write fails fast without blocking.
	if err := fc.admit(th, th.Clock.Now()+1_000_000); !errors.Is(err, ErrStalled) {
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
	fc, setL0, _ := testFlow(testThresholds())
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
	e.DebugUnforceFlowState()
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
	sh.DebugUnforceFlowState()
	for k := range sh.shards {
		sh.shards[k].flow.recompute(th.Clock.Now(), "test")
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
	sh.DebugUnforceFlowState()
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
	// With flow control disabled and a single tiny slot per core, a write
	// that cannot get a slot before its deadline must stall instead of
	// blocking forever — exercised through the public deadline API so the
	// admission fast path stays out of the way.
	o := smallOpts()
	o.DisableFlowControl = true
	o.PoolBytes = 256 << 10 // 2 slots of 128 KiB
	o.FlushThreads = 1
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)

	val := make([]byte, 4<<10)
	var sawStall bool
	for i := 0; i < 2000; i++ {
		err := e.Write(th, putBatch([]byte(fmt.Sprintf("k%06d", i)), val), 50)
		if err != nil {
			if !errors.Is(err, ErrStalled) {
				t.Fatal(err)
			}
			sawStall = true
			break
		}
	}
	// Whether a stall occurs depends on flush keeping up; either way the
	// engine must still accept unbounded writes afterwards.
	_ = sawStall
	if err := e.Put(th, []byte("tail"), []byte("v")); err != nil {
		t.Fatalf("legacy write after deadline traffic: %v", err)
	}
	if v, err := e.Get(th, []byte("tail")); err != nil || string(v) != "v" {
		t.Fatalf("tail read: %q %v", v, err)
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
