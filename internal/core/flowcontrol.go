package core

import (
	"errors"
	"sync"
	"sync/atomic"

	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/obs"
)

// ErrStalled is returned by deadline-aware writes that cannot be admitted
// before their deadline: the engine is in Stop, or the Slowdown token queue
// (or a slot/ImmZone wait) would push the write past its deadline. The write
// left no trace in any durable structure — retrying later is always safe.
var ErrStalled = errors.New("cachekv: write stalled past deadline (overload)")

// FlowState is the write-admission state of one engine (one shard).
type FlowState int32

// Flow-control states, ordered by severity: transitions escalate immediately
// and de-escalate with hysteresis.
const (
	FlowOK       FlowState = iota // admit freely
	FlowSlowdown                  // delayed admission: paced tokens with exponential refill
	FlowStop                      // deadline writes fail fast; deadline-0 writes block
)

func (s FlowState) String() string {
	switch s {
	case FlowOK:
		return "ok"
	case FlowSlowdown:
		return "slowdown"
	case FlowStop:
		return "stop"
	default:
		return "invalid"
	}
}

// FlowThresholds are the RocksDB-style soft (Slowdown) and hard (Stop)
// pressure bounds, each with a lower exit bound providing hysteresis: a state
// is entered when any signal crosses its enter threshold and left only when
// every signal is back under the exit threshold of the state being held.
// Zero fields take defaults derived from the engine's zone and LSM budgets.
type FlowThresholds struct {
	// L0 file count (the storage component's compaction debt).
	L0Slowdown, L0Stop         int
	L0SlowdownExit, L0StopExit int

	// Backlog bytes: ImmZone occupancy plus sealed-but-unflushed slot bytes
	// (the memory component's flush debt). May legitimately exceed the zone
	// size while seals queue, hence Stop above 100%.
	BacklogSlowdown, BacklogStop         uint64
	BacklogSlowdownExit, BacklogStopExit uint64

	// WAL bytes: the cross-shard two-phase logs (zero when the engine is not
	// part of a sharded deployment; a zero enter threshold disables a signal).
	WALSlowdown, WALStop         uint64
	WALSlowdownExit, WALStopExit uint64

	// Compaction-debt bytes: the storage component's reorganization backlog
	// (L0 bytes once the trigger is reached plus every deeper level's overage;
	// see lsm.Tree.CompactionDebt). Unlike the L0 file count this tracks what
	// the background compaction scheduler still owes in bytes, so admission
	// reacts to a deep-level pileup before it cascades back into L0. Zero
	// enter thresholds take defaults derived from the LSM level budget.
	DebtSlowdown, DebtStop         uint64
	DebtSlowdownExit, DebtStopExit uint64

	// Slowdown token pacing: the first delayed writer waits SlowdownBaseDelay
	// virtual ns, and each admitted token doubles the refill interval up to
	// SlowdownMaxDelay, so sustained pressure converges on a hard admission
	// rate while short bursts pay almost nothing.
	SlowdownBaseDelay int64
	SlowdownMaxDelay  int64
}

// withDefaults derives unset thresholds from the engine configuration.
func (t FlowThresholds) withDefaults(opts Options) FlowThresholds {
	trigger := opts.LSM.L0CompactionTrigger
	if trigger <= 0 {
		trigger = 4
	}
	if t.L0Slowdown == 0 {
		t.L0Slowdown = 2 * trigger
	}
	if t.L0Stop == 0 {
		t.L0Stop = 4 * trigger
	}
	if t.L0SlowdownExit == 0 {
		t.L0SlowdownExit = t.L0Slowdown * 3 / 4
	}
	if t.L0StopExit == 0 {
		t.L0StopExit = t.L0Stop * 3 / 4
	}
	zone := opts.ImmZoneBytes
	if t.BacklogSlowdown == 0 {
		t.BacklogSlowdown = zone * 85 / 100
	}
	if t.BacklogStop == 0 {
		t.BacklogStop = zone * 110 / 100
	}
	if t.BacklogSlowdownExit == 0 {
		t.BacklogSlowdownExit = t.BacklogSlowdown * 3 / 4
	}
	if t.BacklogStopExit == 0 {
		t.BacklogStopExit = t.BacklogStop * 3 / 4
	}
	// WAL thresholds stay zero (disabled) until a sharded deployment installs
	// its two-phase log signal; OpenSharded fills them from the log capacity.
	if t.WALSlowdownExit == 0 {
		t.WALSlowdownExit = t.WALSlowdown / 2
	}
	if t.WALStopExit == 0 {
		t.WALStopExit = t.WALStop * 3 / 4
	}
	base := opts.LSM.BaseLevelBytes
	if base <= 0 {
		base = 8 << 20
	}
	if t.DebtSlowdown == 0 {
		t.DebtSlowdown = uint64(base)
	}
	if t.DebtStop == 0 {
		t.DebtStop = uint64(4 * base)
	}
	if t.DebtSlowdownExit == 0 {
		t.DebtSlowdownExit = t.DebtSlowdown / 2
	}
	if t.DebtStopExit == 0 {
		t.DebtStopExit = t.DebtStop * 3 / 4
	}
	if t.SlowdownBaseDelay == 0 {
		t.SlowdownBaseDelay = 2_000 // 2µs virtual
	}
	if t.SlowdownMaxDelay == 0 {
		t.SlowdownMaxDelay = 1 << 18 // ~262µs virtual
	}
	return t
}

// FlowStats is a point-in-time snapshot of one engine's flow-control
// counters (aggregated across shards by the sharded router).
type FlowStats struct {
	State           FlowState
	SlowdownEntries int64 // transitions into Slowdown
	StopEntries     int64 // transitions into Stop
	DelayedWrites   int64 // writes admitted after a paced token wait
	DelayedNs       int64 // total virtual ns spent in token waits
	RejectedWrites  int64 // deadline writes refused with ErrStalled
	StopWaits       int64 // deadline-0 writes that blocked in Stop
	StopWaitNs      int64 // total virtual ns deadline-0 writes spent blocked
	DwellOKNs       int64 // completed-dwell virtual ns per state
	DwellSlowdownNs int64
	DwellStopNs     int64
}

// flowControl is one engine's admission state machine. Signals are polled on
// every flush/spill/compaction lifecycle event (never per-write), so the hot
// path costs one atomic load while the state is OK.
type flowControl struct {
	th    FlowThresholds
	shard int
	trace *obs.Trace

	disabled bool

	// shapeBlocking extends admission shaping (Slowdown pacing, Stop blocking)
	// to deadline-0 writes. It is set only when the engine is opened with a
	// non-zero WriteStallDeadline — i.e. the operator explicitly turned on
	// overload protection. Without it, deadline-0 writes bypass shaping
	// entirely: token pacing couples the writer's virtual clock to background
	// lifecycle timing, and shaping them unconditionally costs fill three
	// orders of magnitude of throughput at today's thresholds (ROADMAP item 2).
	shapeBlocking bool

	// Pressure signals, installed at Open. wal is nil until a sharded
	// deployment wires its two-phase log size (installed under mu); debt may
	// be nil (no signal).
	l0      func() (files int, bytes int64)
	backlog func() uint64
	debt    func() uint64

	mu         sync.Mutex
	cond       *sync.Cond
	state      atomic.Int32 // FlowState, readable without mu
	wal        func() uint64
	lastTransV int64 // virtual time of the last transition
	nextTokenV int64 // next Slowdown admission slot
	refillNs   int64 // current token refill interval
	forced     bool  // test/harness override: recompute becomes a no-op
	aborted    bool

	dwellHist [3]*histogram.H
	dwellNs   [3]atomic.Int64

	slowdownEntries atomic.Int64
	stopEntries     atomic.Int64
	delayedWrites   atomic.Int64
	delayedNs       atomic.Int64
	rejectedWrites  atomic.Int64
	stopWaits       atomic.Int64
	stopWaitNs      atomic.Int64
}

func newFlowControl(opts Options, disabled bool, l0 func() (int, int64), backlog, debt func() uint64) *flowControl {
	fc := &flowControl{
		th:            opts.Flow.withDefaults(opts),
		shard:         opts.Shard,
		trace:         opts.Trace,
		disabled:      disabled,
		shapeBlocking: opts.WriteStallDeadline != 0,
		l0:            l0,
		backlog:       backlog,
		debt:          debt,
	}
	fc.cond = sync.NewCond(&fc.mu)
	fc.refillNs = fc.th.SlowdownBaseDelay
	for i := range fc.dwellHist {
		fc.dwellHist[i] = histogram.New()
	}
	return fc
}

// setWALSignal installs the two-phase log size signal and its thresholds
// (called once by OpenSharded after the logs are allocated).
func (fc *flowControl) setWALSignal(f func() uint64, slowdown, stop uint64) {
	if fc == nil {
		return
	}
	fc.mu.Lock()
	fc.wal = f
	fc.th.WALSlowdown = slowdown
	fc.th.WALStop = stop
	fc.th.WALSlowdownExit = slowdown / 2
	fc.th.WALStopExit = stop * 3 / 4
	fc.mu.Unlock()
}

// enterLevel maps one signal to the state it demands via enter thresholds;
// holdLevel uses the lower exit thresholds (the state the signal can still
// justify holding). A zero enter threshold disables the signal.
func level3(v, slow, stop uint64) FlowState {
	switch {
	case stop > 0 && v >= stop:
		return FlowStop
	case slow > 0 && v >= slow:
		return FlowSlowdown
	default:
		return FlowOK
	}
}

func (fc *flowControl) rawLevelLocked(l0 int, backlog, wal, debt uint64) FlowState {
	s := level3(uint64(l0), uint64(fc.th.L0Slowdown), uint64(fc.th.L0Stop))
	if b := level3(backlog, fc.th.BacklogSlowdown, fc.th.BacklogStop); b > s {
		s = b
	}
	if w := level3(wal, fc.th.WALSlowdown, fc.th.WALStop); w > s {
		s = w
	}
	if d := level3(debt, fc.th.DebtSlowdown, fc.th.DebtStop); d > s {
		s = d
	}
	return s
}

func (fc *flowControl) holdLevelLocked(l0 int, backlog, wal, debt uint64) FlowState {
	// A disabled signal (zero enter threshold) must not hold a state either.
	hold := func(v, slowEnter, slowExit, stopEnter, stopExit uint64) FlowState {
		switch {
		case stopEnter > 0 && v >= stopExit:
			return FlowStop
		case slowEnter > 0 && v >= slowExit:
			return FlowSlowdown
		default:
			return FlowOK
		}
	}
	s := hold(uint64(l0), uint64(fc.th.L0Slowdown), uint64(fc.th.L0SlowdownExit),
		uint64(fc.th.L0Stop), uint64(fc.th.L0StopExit))
	if b := hold(backlog, fc.th.BacklogSlowdown, fc.th.BacklogSlowdownExit,
		fc.th.BacklogStop, fc.th.BacklogStopExit); b > s {
		s = b
	}
	if w := hold(wal, fc.th.WALSlowdown, fc.th.WALSlowdownExit,
		fc.th.WALStop, fc.th.WALStopExit); w > s {
		s = w
	}
	if d := hold(debt, fc.th.DebtSlowdown, fc.th.DebtSlowdownExit,
		fc.th.DebtStop, fc.th.DebtStopExit); d > s {
		s = d
	}
	return s
}

// recompute re-evaluates the pressure signals and transitions the state
// machine. Called from lifecycle events (seal, flush end, spill end,
// compaction end) — escalation is immediate, de-escalation held back by the
// exit thresholds so the state cannot flap around a boundary.
func (fc *flowControl) recompute(at int64, reason string) {
	if fc == nil || fc.disabled {
		return
	}
	// Signals take their own locks (tree mu, arena atomics); evaluate them
	// before fc.mu so admission is never blocked behind a signal read.
	files, _ := fc.l0()
	backlog := fc.backlog()
	var debt uint64
	if fc.debt != nil {
		debt = fc.debt()
	}

	fc.mu.Lock()
	if fc.forced || fc.aborted {
		fc.mu.Unlock()
		return
	}
	var wal uint64
	if fc.wal != nil {
		wal = fc.wal()
	}
	cur := FlowState(fc.state.Load())
	next := fc.rawLevelLocked(files, backlog, wal, debt)
	if hold := fc.holdLevelLocked(files, backlog, wal, debt); cur > next && cur <= hold {
		next = cur // hysteresis: signals dropped below enter but not below exit
	} else if cur > next && hold > next {
		next = hold // step down one severity at most as far as exits allow
	}
	if next != cur {
		fc.transitionLocked(at, cur, next, reason, files, backlog, wal, debt)
	}
	fc.mu.Unlock()
}

// transitionLocked performs the state change bookkeeping under fc.mu.
func (fc *flowControl) transitionLocked(at int64, from, to FlowState, reason string, l0 int, backlog, wal, debt uint64) {
	if d := at - fc.lastTransV; d > 0 {
		fc.dwellHist[from].Record(d)
		fc.dwellNs[from].Add(d)
		fc.lastTransV = at
	}
	fc.state.Store(int32(to))
	switch to {
	case FlowSlowdown:
		fc.slowdownEntries.Add(1)
		if from == FlowOK {
			// A fresh Slowdown starts pacing from the base interval.
			fc.refillNs = fc.th.SlowdownBaseDelay
			fc.nextTokenV = at
		}
	case FlowStop:
		fc.stopEntries.Add(1)
	case FlowOK:
		fc.refillNs = fc.th.SlowdownBaseDelay
	}
	fc.trace.Emit(at, "flow_state", "shard", fc.shard,
		"from", from.String(), "to", to.String(), "reason", reason,
		"l0_files", l0, "backlog_bytes", backlog, "wal_bytes", wal,
		"debt_bytes", debt)
	fc.cond.Broadcast()
}

// admitWrite is admit as called from Write: a deadline-0 write on an engine
// with no configured WriteStallDeadline skips shaping (see shapeBlocking).
// State tracking, tracing, and metrics continue regardless — only the
// foreground clock coupling is gated.
func (fc *flowControl) admitWrite(th *hw.Thread, deadlineV int64) error {
	if fc == nil || (deadlineV == 0 && !fc.shapeBlocking) {
		return nil
	}
	return fc.admit(th, deadlineV)
}

// admit gates one write. deadlineV is an absolute virtual-clock deadline
// (0 = none). In OK it is one atomic load. In Slowdown the write takes the
// next token and advances its clock to that slot — or is rejected without
// consuming a token when the slot lies past its deadline, so rejected writers
// cannot stretch the queue for everyone behind them. In Stop a deadline write
// fails fast and a deadline-0 write blocks until the state de-escalates.
func (fc *flowControl) admit(th *hw.Thread, deadlineV int64) error {
	if fc == nil || fc.disabled {
		return nil
	}
	if FlowState(fc.state.Load()) == FlowOK {
		return nil
	}
	for {
		fc.mu.Lock()
		if fc.aborted {
			fc.mu.Unlock()
			return nil // the engine error surfaces at the caller's err() check
		}
		switch FlowState(fc.state.Load()) {
		case FlowOK:
			fc.mu.Unlock()
			return nil
		case FlowSlowdown:
			now := th.Clock.Now()
			turn := fc.nextTokenV
			if turn < now {
				turn = now
			}
			if deadlineV > 0 && turn > deadlineV {
				fc.mu.Unlock()
				fc.rejectedWrites.Add(1)
				fc.trace.Emit(now, "write_stall", "shard", fc.shard, "state", "slowdown",
					"next_token_v_ns", turn, "deadline_v_ns", deadlineV)
				return ErrStalled
			}
			fc.nextTokenV = turn + fc.refillNs
			if fc.refillNs < fc.th.SlowdownMaxDelay {
				fc.refillNs *= 2
				if fc.refillNs > fc.th.SlowdownMaxDelay {
					fc.refillNs = fc.th.SlowdownMaxDelay
				}
			}
			fc.mu.Unlock()
			if turn > now {
				fc.delayedWrites.Add(1)
				fc.delayedNs.Add(turn - now)
				fc.trace.Emit(turn, "write_delay", "shard", fc.shard, "wait_ns", turn-now)
				th.InPhase(hw.PhaseOther, func() {
					th.Clock.AdvanceTo(turn)
				})
			}
			return nil
		default: // FlowStop
			if deadlineV > 0 {
				fc.mu.Unlock()
				fc.rejectedWrites.Add(1)
				fc.trace.Emit(th.Clock.Now(), "write_stall", "shard", fc.shard, "state", "stop",
					"deadline_v_ns", deadlineV)
				return ErrStalled
			}
			fc.stopWaits.Add(1)
			start := th.Clock.Now()
			for FlowState(fc.state.Load()) == FlowStop && !fc.aborted {
				fc.cond.Wait()
			}
			wakeV := fc.lastTransV
			fc.mu.Unlock()
			if wakeV > start {
				th.InPhase(hw.PhaseOther, func() {
					th.Clock.AdvanceTo(wakeV)
				})
			}
			fc.stopWaitNs.Add(th.Clock.Now() - start)
			fc.trace.Emit(th.Clock.Now(), "write_stop_wait", "shard", fc.shard,
				"wait_ns", th.Clock.Now()-start)
			// Loop: the state is now Slowdown or OK (or Stop again).
		}
	}
}

// abort wakes writers blocked in Stop so they observe the engine
// failure (wired into Engine.fail).
func (fc *flowControl) abort() {
	if fc == nil {
		return
	}
	fc.mu.Lock()
	fc.aborted = true
	fc.cond.Broadcast()
	fc.mu.Unlock()
}

// force pins the state machine to state s at virtual time at and suspends
// recompute until forceOff. Deterministic crash-schedule harnesses use it to
// script stall phases without real (and nondeterministic) backlog pressure.
func (fc *flowControl) force(at int64, s FlowState) {
	if fc == nil {
		return
	}
	fc.mu.Lock()
	fc.forced = true
	if cur := FlowState(fc.state.Load()); cur != s {
		fc.transitionLocked(at, cur, s, "forced", 0, 0, 0, 0)
	}
	fc.mu.Unlock()
}

// forceOff releases a force pin; the next lifecycle event re-evaluates the
// real signals.
func (fc *flowControl) forceOff() {
	if fc == nil {
		return
	}
	fc.mu.Lock()
	fc.forced = false
	fc.mu.Unlock()
}

// current returns the state without taking the mutex.
func (fc *flowControl) current() FlowState {
	if fc == nil {
		return FlowOK
	}
	return FlowState(fc.state.Load())
}

// snapshot returns the counter snapshot.
func (fc *flowControl) snapshot() FlowStats {
	if fc == nil {
		return FlowStats{}
	}
	return FlowStats{
		State:           fc.current(),
		SlowdownEntries: fc.slowdownEntries.Load(),
		StopEntries:     fc.stopEntries.Load(),
		DelayedWrites:   fc.delayedWrites.Load(),
		DelayedNs:       fc.delayedNs.Load(),
		RejectedWrites:  fc.rejectedWrites.Load(),
		StopWaits:       fc.stopWaits.Load(),
		StopWaitNs:      fc.stopWaitNs.Load(),
		DwellOKNs:       fc.dwellNs[FlowOK].Load(),
		DwellSlowdownNs: fc.dwellNs[FlowSlowdown].Load(),
		DwellStopNs:     fc.dwellNs[FlowStop].Load(),
	}
}

// Add merges another snapshot (the sharded router's aggregation): counters
// sum, State takes the most severe shard.
func (s FlowStats) Add(o FlowStats) FlowStats {
	if o.State > s.State {
		s.State = o.State
	}
	s.SlowdownEntries += o.SlowdownEntries
	s.StopEntries += o.StopEntries
	s.DelayedWrites += o.DelayedWrites
	s.DelayedNs += o.DelayedNs
	s.RejectedWrites += o.RejectedWrites
	s.StopWaits += o.StopWaits
	s.StopWaitNs += o.StopWaitNs
	s.DwellOKNs += o.DwellOKNs
	s.DwellSlowdownNs += o.DwellSlowdownNs
	s.DwellStopNs += o.DwellStopNs
	return s
}

// absDeadline converts a relative deadline (ns on the virtual clock; <= 0
// means none) into the absolute deadline admit and the wait loops compare
// against.
func absDeadline(th *hw.Thread, deadlineNs int64) int64 {
	if deadlineNs <= 0 {
		return 0
	}
	return th.Clock.Now() + deadlineNs
}

// Backoff bounds for deadline-aware waits on host-side condition variables
// (slot allocation, ImmZone space): each retry advances the virtual clock by
// a doubling, capped step so a stalled writer's virtual wait converges on its
// deadline instead of spinning at zero cost or waiting forever.
const (
	stallBackoffBaseNs = 1 << 10 // ~1µs virtual
	stallBackoffMaxNs  = 1 << 16 // ~65µs virtual
)
