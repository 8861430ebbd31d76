package lsm

import (
	"sync"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/obs"
)

// SchedulerConfig configures the background compaction scheduler: a pool of
// worker goroutines, each with its own hw.Thread attributed to PhaseCompact,
// that drain the tree's compaction debt in priority order while the
// foreground write path stays decoupled from reorganization cost.
type SchedulerConfig struct {
	// Workers is the worker-thread count; <= 0 disables the scheduler.
	Workers int
	// OnError receives background compaction failures (the engine's fail
	// hook). The scheduler stops picking after the first error.
	OnError func(error)
	// OnJobDone fires after each job's version edit installs, with the
	// job's virtual completion time — engines refresh flow control here.
	OnJobDone func(at int64)
	// Err reports the engine's sticky background error; workers idle once it
	// returns non-nil (crash-stop) instead of racing a dying engine.
	Err func() error
	// Trace receives per-job lifecycle events; nil is safe.
	Trace *obs.Trace
}

// SchedulerStats is a point-in-time snapshot of scheduler activity.
type SchedulerStats struct {
	Workers   int
	JobsRun   int64 // completed compaction jobs
	Running   int   // jobs executing right now
	Queued    int   // levels over limit with no job claimed yet
	BusyNs    int64 // virtual ns the worker pool spent compacting
	LastDoneV int64 // virtual completion time of the latest finished job
}

type scheduler struct {
	t      *Tree
	cfg    SchedulerConfig
	pool   *sim.ServerPool
	kickCh chan int64
	stopCh chan struct{}
	wg     sync.WaitGroup

	// kickV is the virtual-time frontier of debt-creating events (spills,
	// ingests). The channel drops kicks while every worker is busy, so the
	// frontier is kept separately: a worker syncs its clock to it before each
	// pick — a compaction cannot start before the event that made it due.
	kickV atomic.Int64

	mu        sync.Mutex
	cond      *sync.Cond
	running   int
	jobs      int64
	lastDoneV int64
	nextJobID int64
	stopped   bool
}

// StartScheduler launches cfg.Workers background compaction workers. It is a
// no-op when Workers <= 0 or a scheduler is already running. Engines call it
// once right after Open, before the tree is under load.
func (t *Tree) StartScheduler(cfg SchedulerConfig) {
	if cfg.Workers <= 0 || t.sched != nil {
		return
	}
	s := &scheduler{
		t:      t,
		cfg:    cfg,
		pool:   sim.NewServerPool(cfg.Workers),
		kickCh: make(chan int64, cfg.Workers),
		stopCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	t.sched = s
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
}

// Kick nudges the scheduler: some event (spill, ingest) may have created
// compaction debt at virtual time at. Non-blocking and safe without a
// scheduler.
func (t *Tree) Kick(at int64) {
	if s := t.sched; s != nil {
		s.kickAt(at)
	}
}

// WaitCompactIdle blocks until no compaction is running and none is due, then
// advances th's clock past the last job's virtual completion — the
// synchronous drain FlushAll needs before reporting the tree settled.
func (t *Tree) WaitCompactIdle(th *hw.Thread) {
	if s := t.sched; s != nil {
		s.waitIdle(th)
	}
}

// AbortScheduler stops job picking without waiting for in-flight jobs — the
// crash-stop path (engine fail) that must not block. Safe from a worker.
func (t *Tree) AbortScheduler() {
	if s := t.sched; s != nil {
		s.abort()
	}
}

// StopScheduler aborts picking and joins every worker. Engines call it during
// Close, after background flushes have drained.
func (t *Tree) StopScheduler() {
	if s := t.sched; s != nil {
		s.abort()
		s.wg.Wait()
	}
}

// SchedulerStats snapshots the scheduler's activity counters (zero value when
// no scheduler runs).
func (t *Tree) SchedulerStats() SchedulerStats {
	s := t.sched
	if s == nil {
		return SchedulerStats{}
	}
	_, busy := s.pool.Stats()
	s.mu.Lock()
	st := SchedulerStats{
		Workers:   s.cfg.Workers,
		JobsRun:   s.jobs,
		Running:   s.running,
		BusyNs:    busy,
		LastDoneV: s.lastDoneV,
	}
	s.mu.Unlock()
	t.mu.RLock()
	if !t.opts.SingleLevel {
		if len(t.levels[0]) >= t.opts.L0CompactionTrigger {
			st.Queued++
		}
		for lvl := 1; lvl < t.opts.MaxLevels-1; lvl++ {
			if len(t.levels[lvl]) > 0 && t.levelBytesLocked(lvl) > t.levelLimit(lvl) {
				st.Queued++
			}
		}
	}
	t.mu.RUnlock()
	if st.Queued >= st.Running {
		st.Queued -= st.Running
	} else {
		st.Queued = 0
	}
	return st
}

func (s *scheduler) kickAt(at int64) {
	for {
		cur := s.kickV.Load()
		if at <= cur || s.kickV.CompareAndSwap(cur, at) {
			break
		}
	}
	select {
	case s.kickCh <- at:
	default:
	}
}

func (s *scheduler) abort() {
	s.mu.Lock()
	if !s.stopped {
		s.stopped = true
		close(s.stopCh)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *scheduler) worker() {
	defer s.wg.Done()
	th := s.t.m.NewThread(0).SetName("compact-worker")
	th.Clock.SetLabel(hw.PhaseCompact.Layer())
	for {
		select {
		case <-s.stopCh:
			return
		case at := <-s.kickCh:
			th.Clock.AdvanceTo(at)
			s.drain(th)
		}
	}
}

// drain runs jobs back to back until the tree has no pickable work left. One
// job per iteration; when more debt is due after a pick, it recruits another
// worker so disjoint-range jobs proceed concurrently.
func (s *scheduler) drain(th *hw.Thread) {
	for {
		select {
		case <-s.stopCh:
			return
		default:
		}
		if s.cfg.Err != nil && s.cfg.Err() != nil {
			s.wake()
			return
		}
		// Catch up to the kick frontier: the channel drops kicks while all
		// workers are busy, and picking at a stale clock would let this job
		// complete (virtually) before the spill that created its debt.
		if v := s.kickV.Load(); v > th.Clock.Now() {
			th.Clock.AdvanceTo(v)
		}
		s.t.mu.Lock()
		c := s.t.pickCompaction()
		due := c != nil && s.t.compactionDueLocked()
		s.t.mu.Unlock()
		if c == nil {
			s.wake()
			return
		}
		if due {
			s.kickAt(th.Clock.Now())
		}
		s.mu.Lock()
		s.running++
		id := s.nextJobID
		s.nextJobID++
		s.mu.Unlock()
		start := th.Clock.Now()
		s.cfg.Trace.Emit(start, "compact_start",
			"job", id, "level", c.level,
			"inputs", len(c.inputs), "overlap", len(c.overlap), "score", c.score)
		var res compactResult
		var err error
		th.InPhase(hw.PhaseCompact, func() {
			res, err = s.t.compact(th, c)
		})
		dur := th.Clock.Now() - start
		done := s.pool.Submit(start, dur)
		th.Clock.AdvanceTo(done)
		s.mu.Lock()
		s.running--
		s.jobs++
		if done > s.lastDoneV {
			s.lastDoneV = done
		}
		s.cond.Broadcast()
		s.mu.Unlock()
		// A failed job still closes its compact_start in the trace.
		end := []any{"job", id, "level", res.Level, "out_level", res.OutLevel}
		if err != nil {
			end = append(end, "err", err.Error())
		} else {
			end = append(end, "bytes_in", res.BytesIn, "bytes_out", res.BytesOut,
				"tables_in", res.Inputs, "tables_out", res.Outputs,
				"moved", res.Moved, "components", res.Components)
		}
		s.cfg.Trace.Emit(done, "compact_end", append(end, "ns", dur)...)
		if err != nil {
			if s.cfg.OnError != nil {
				s.cfg.OnError(err)
			}
			return
		}
		if s.cfg.OnJobDone != nil {
			s.cfg.OnJobDone(done)
		}
	}
}

func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *scheduler) waitIdle(th *hw.Thread) {
	for {
		if s.cfg.Err != nil && s.cfg.Err() != nil {
			return
		}
		s.t.mu.RLock()
		due := s.t.compactionDueLocked()
		s.t.mu.RUnlock()
		s.mu.Lock()
		if s.stopped || (s.running == 0 && !due) {
			doneV := s.lastDoneV
			s.mu.Unlock()
			th.Clock.AdvanceTo(doneV)
			return
		}
		s.kickAt(th.Clock.Now())
		s.cond.Wait()
		s.mu.Unlock()
	}
}
