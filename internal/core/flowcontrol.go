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

// flowSignal is one row of the flow-control table: a pressure reading and the
// RocksDB-style soft (Slowdown) and hard (Stop) bounds it is judged against,
// each with a lower exit bound providing hysteresis. A state is entered when
// any row's reading crosses its enter bound and left only when every row is
// back under the exit bound of the state being held. A zero enter bound
// disables that state of the row, for entering and for holding.
type flowSignal struct {
	name string // the reading's attribute on flow_state trace events
	read func() uint64

	slow, slowExit uint64
	stop, stopExit uint64
}

// flowTable builds the engine's rows, every bound a fixed fraction of the
// budget the signal protects:
//
//   - L0 files (the storage component's unmerged flushes) against the L0
//     compaction trigger: x2 and x4, exits 3/4;
//   - backlog bytes (see Engine.backlog) against the ImmZone: 85% and — seals
//     queue past a full zone — 110%, exits 3/4;
//   - compaction-debt bytes (lsm.Tree.CompactionDebt: L0 bytes once the
//     trigger is reached plus every deeper level's overage, so admission
//     reacts to a deep-level pileup before it cascades back into L0) against
//     the L1 budget: x1 and x4, exits 1/2 and 3/4;
//   - on a router's shard, two-phase log bytes against the log capacity: 3/4
//     and 15/16, exits 1/2 and 3/4 — a safety valve above the half-capacity
//     auto-reset, so runaway cross-shard traffic escalates admission before a
//     log-full failure.
func (e *Engine) flowTable() []flowSignal {
	trigger := uint64(e.opts.LSM.L0CompactionTrigger)
	if e.opts.LSM.L0CompactionTrigger <= 0 {
		trigger = 4
	}
	zone := e.opts.ImmZoneBytes
	base := uint64(e.opts.LSM.BaseLevelBytes)
	if e.opts.LSM.BaseLevelBytes <= 0 {
		base = 8 << 20
	}
	l0Files := func() uint64 { files, _ := e.tree.L0Pressure(); return uint64(files) }
	rows := []flowSignal{
		{"l0_files", l0Files, 2 * trigger, 2 * trigger * 3 / 4, 4 * trigger, 4 * trigger * 3 / 4},
		{"backlog_bytes", e.backlog, zone * 85 / 100, zone * 85 / 100 * 3 / 4, zone * 110 / 100, zone * 110 / 100 * 3 / 4},
		{"debt_bytes", e.tree.CompactionDebt, base, base / 2, 4 * base, 4 * base * 3 / 4},
	}
	if e.env.wal != nil {
		const walCap = 2 * twoPCLogBytes
		rows = append(rows, flowSignal{"wal_bytes", e.env.wal,
			walCap * 3 / 4, walCap * 3 / 4 / 2, walCap * 15 / 16, walCap * 15 / 16 * 3 / 4})
	}
	return rows
}

// Slowdown token pacing: the first delayed writer waits slowdownBaseDelay
// virtual ns, and each admitted token doubles the refill interval up to
// slowdownMaxDelay, so sustained pressure converges on a hard admission rate
// while short bursts pay almost nothing.
const (
	slowdownBaseDelay = 2_000   // 2µs virtual
	slowdownMaxDelay  = 1 << 18 // ~262µs virtual
)

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
	signals []flowSignal // immutable after newFlowControl
	shard   int
	trace   *obs.Trace

	disabled bool

	// shapeBlocking extends admission shaping (Slowdown pacing, Stop blocking)
	// to deadline-0 writes. It is set only when the engine is opened with a
	// non-zero WriteStallDeadline — i.e. the operator explicitly turned on
	// overload protection. Without it, deadline-0 writes bypass shaping
	// entirely: token pacing couples the writer's virtual clock to background
	// lifecycle timing, and shaping them unconditionally costs fill three
	// orders of magnitude of throughput at today's thresholds (ROADMAP item 6).
	shapeBlocking bool

	mu         sync.Mutex
	cond       *sync.Cond
	state      atomic.Int32 // FlowState, readable without mu
	lastTransV int64        // virtual time of the last transition
	nextTokenV int64        // next Slowdown admission slot
	refillNs   int64        // current token refill interval
	forced     bool         // test/harness override: recompute becomes a no-op
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

// newFlowControl builds shard's state machine over the signal table; o
// contributes the trace, the off switch and whether deadline-0 writes are
// shaped.
func newFlowControl(signals []flowSignal, shard int, o Options) *flowControl {
	fc := &flowControl{
		signals:       signals,
		shard:         shard,
		trace:         o.Trace,
		disabled:      o.DisableFlowControl,
		shapeBlocking: o.WriteStallDeadline != 0,
		refillNs:      slowdownBaseDelay,
	}
	fc.cond = sync.NewCond(&fc.mu)
	for i := range fc.dwellHist {
		fc.dwellHist[i] = histogram.New()
	}
	return fc
}

// level maps a reading to the state it justifies against one pair of bounds:
// a row's enter bounds say what the reading demands, its exit bounds what it
// can still hold. A zero bound never triggers.
func level(v, slow, stop uint64) FlowState {
	switch {
	case stop > 0 && v >= stop:
		return FlowStop
	case slow > 0 && v >= slow:
		return FlowSlowdown
	default:
		return FlowOK
	}
}

// recompute re-evaluates the pressure signals and transitions the state
// machine. Called from lifecycle events (seal, flush end, spill end,
// compaction end) — escalation is immediate, de-escalation held back by the
// exit bounds so the state cannot flap around a boundary.
func (fc *flowControl) recompute(at int64, reason string) {
	if fc.disabled {
		return
	}
	// Signals take their own locks (tree mu, arena atomics); read them
	// before fc.mu so admission is never blocked behind a signal read.
	readings := make([]uint64, len(fc.signals))
	var next, hold FlowState
	for i, s := range fc.signals {
		v := s.read()
		readings[i] = v
		next = max(next, level(v, s.slow, s.stop))
		// Held down to the exit bounds, capped by the enter bounds: a state
		// the row cannot enter (a zero bound) it cannot hold either.
		hold = max(hold, level(v, min(s.slow, s.slowExit), min(s.stop, s.stopExit)))
	}

	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.forced || fc.aborted {
		return
	}
	cur := FlowState(fc.state.Load())
	if cur > next {
		// Hysteresis: the signals dropped below enter; stay, or step down,
		// only as far as the exit bounds allow.
		next = max(next, min(cur, hold))
	}
	if next != cur {
		fc.transitionLocked(at, cur, next, reason, readings)
	}
}

// transitionLocked performs the state change bookkeeping under fc.mu;
// readings are the signal values that drove it, one per row.
func (fc *flowControl) transitionLocked(at int64, from, to FlowState, reason string, readings []uint64) {
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
			fc.refillNs = slowdownBaseDelay
			fc.nextTokenV = at
		}
	case FlowStop:
		fc.stopEntries.Add(1)
	case FlowOK:
		fc.refillNs = slowdownBaseDelay
	}
	if fc.trace != nil {
		attrs := []any{"shard", fc.shard, "from", from.String(), "to", to.String(), "reason", reason}
		for i, s := range fc.signals {
			attrs = append(attrs, s.name, readings[i])
		}
		fc.trace.Emit(at, "flow_state", attrs...)
	}
	fc.cond.Broadcast()
}

// admitWrite is admit as called from Write: a deadline-0 write on an engine
// with no configured WriteStallDeadline skips shaping (see shapeBlocking).
// State tracking, tracing, and metrics continue regardless — only the
// foreground clock coupling is gated.
func (fc *flowControl) admitWrite(th *hw.Thread, deadlineV int64) error {
	if deadlineV == 0 && !fc.shapeBlocking {
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
	if fc.disabled {
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
				fc.trace.Emit(now, "write_stall", "shard", fc.shard, "state", "slowdown",
					"next_token_v_ns", turn, "deadline_v_ns", deadlineV)
				return ErrStalled
			}
			fc.nextTokenV = turn + fc.refillNs
			fc.refillNs = min(2*fc.refillNs, slowdownMaxDelay)
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

// countStall counts err when it is the overload rejection and returns it. The
// write entries (Engine.Write, Sharded.Write) pass their result through it, so
// every ErrStalled that leaves the store is counted once, whichever wait —
// admission, the group-commit queue, a slot, the two-phase logs — ran out.
func (fc *flowControl) countStall(err error) error {
	if errors.Is(err, ErrStalled) {
		fc.rejectedWrites.Add(1)
	}
	return err
}

// abort wakes writers blocked in Stop so they observe the engine
// failure (wired into Engine.fail).
func (fc *flowControl) abort() {
	fc.mu.Lock()
	fc.aborted = true
	fc.cond.Broadcast()
	fc.mu.Unlock()
}

// force pins the state machine to state s at virtual time at and suspends
// recompute until forceOff. Deterministic crash-schedule harnesses use it to
// script stall phases without real (and nondeterministic) backlog pressure.
func (fc *flowControl) force(at int64, s FlowState) {
	fc.mu.Lock()
	fc.forced = true
	if cur := FlowState(fc.state.Load()); cur != s {
		fc.transitionLocked(at, cur, s, "forced", make([]uint64, len(fc.signals)))
	}
	fc.mu.Unlock()
}

// forceOff releases a force pin; the next lifecycle event re-evaluates the
// real signals.
func (fc *flowControl) forceOff() {
	fc.mu.Lock()
	fc.forced = false
	fc.mu.Unlock()
}

// current returns the state without taking the mutex.
func (fc *flowControl) current() FlowState { return FlowState(fc.state.Load()) }

// snapshot returns the counter snapshot.
func (fc *flowControl) snapshot() FlowStats {
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

// stallBackoff paces a deadline-bounded wait on a host-side condition variable
// (slot allocation, ImmZone space): each retry advances the waiter's virtual
// clock by a doubling, capped step, so a stalled writer's virtual wait
// converges on its deadline instead of spinning at zero cost or waiting
// forever. The zero value is ready to use.
type stallBackoff struct{ ns int64 }

const (
	stallBackoffBaseNs = 1 << 10 // ~1µs virtual
	stallBackoffMaxNs  = 1 << 16 // ~65µs virtual
)

// step charges th the next back-off step, clamped to what is left before
// deadlineV, and reports false — charging nothing — once the deadline passed.
func (b *stallBackoff) step(th *hw.Thread, deadlineV int64) bool {
	rem := deadlineV - th.Clock.Now()
	if rem <= 0 {
		return false
	}
	if b.ns == 0 {
		b.ns = stallBackoffBaseNs
	} else if b.ns < stallBackoffMaxNs {
		b.ns *= 2
	}
	th.Clock.Advance(min(b.ns, rem))
	return true
}
