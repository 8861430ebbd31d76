// Package bgpool runs a store's background work as jobs of a few kinds. A
// kind owns its host workers, its virtual-time server and its queue rule; the
// kinds of one Pool share one crash-stop rule, one completion broadcast that
// waiters re-check their predicates against, and one Close that drains them
// in the order they were added.
package bgpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw/sim"
)

// Rule is how a kind queues its jobs.
type Rule uint8

const (
	// FIFO runs jobs in submission order and never drops one: a job that
	// finds the queue full is a bug, reported to the pool's fail hook.
	FIFO Rule = iota
	// Coalesce folds submissions into one pending run at the frontier: the
	// largest virtual time submitted so far.
	Coalesce
)

// Config describes a kind.
type Config struct {
	Name    string
	Workers int
	Rule    Rule
	Queue   int             // jobs a FIFO kind holds before it overflows
	Server  *sim.ServerPool // the kind's virtual server; nil gives it one per worker
	Abandon bool            // Close drops the queued work, as a crash-stop does
}

// Job is a kind's job body, run by worker w (0 <= w < Workers) for a job
// submitted at virtual time at (a Coalesce kind's frontier) with payload x.
// It returns the job's virtual completion time and, for a Coalesce kind,
// whether to run again at once.
type Job[T any] func(w int, at int64, x T) (done int64, more bool)

// Pool is the set of kinds one store runs.
type Pool struct {
	fail    func(error)
	aborted atomic.Bool
	mu      sync.Mutex
	cond    sync.Cond // broadcast on every completion and on Abort; L is mu
	kinds   []kind
}

// kind is what the pool needs of a Kind, whatever its payload type.
type kind interface{ stop() }

// New returns an empty pool; fail receives a FIFO kind's overflow.
func New(fail func(error)) *Pool {
	p := &Pool{fail: fail}
	p.cond.L = &p.mu
	return p
}

// Abort crash-stops the pool: no queued job runs any more (a kind's drop hook
// sees it instead) and every waiter wakes. A job already running finishes.
func (p *Pool) Abort() {
	p.aborted.Store(true)
	p.broadcast()
}

func (p *Pool) broadcast() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close stops the kinds in the order they were added, each once its workers
// have run (or, for an Abandon kind, dropped) what was queued: work a job of
// an earlier kind submits to a later one still runs. Call it once.
func (p *Pool) Close() {
	for _, k := range p.kinds {
		k.stop()
	}
}

// Kind is one kind of job of a Pool.
type Kind[T any] struct {
	Server *sim.ServerPool // the jobs book their work on it; kinds may share one

	p    *Pool
	cfg  Config
	run  Job[T]
	drop func(T)
	q    chan job[T]
	halt chan struct{} // closed by stop

	front   atomic.Int64 // Coalesce: the frontier
	last    atomic.Int64 // the latest completion
	running atomic.Int32
	gen     uint64 // completions so far; p.mu
	wg      sync.WaitGroup
}

type job[T any] struct {
	at int64
	x  T
}

// Add adds a kind to p and starts its workers. drop, when non-nil, is what a
// job the pool abandons owes its submitter (crash-stop, or Close of an
// Abandon kind).
func Add[T any](p *Pool, cfg Config, run Job[T], drop func(T)) *Kind[T] {
	cfg.Workers = max(cfg.Workers, 1)
	k := &Kind[T]{Server: cfg.Server, p: p, cfg: cfg, run: run, drop: drop, halt: make(chan struct{})}
	if k.Server == nil {
		k.Server = sim.NewServerPool(cfg.Workers)
	}
	n := cfg.Queue
	if cfg.Rule == Coalesce {
		n = cfg.Workers // one pending run per worker: a run picks up every kick before it
	}
	k.q = make(chan job[T], n)
	p.kinds = append(p.kinds, k)
	k.wg.Add(cfg.Workers)
	for w := range cfg.Workers {
		go k.work(w)
	}
	return k
}

// Submit queues a job at virtual time at. It never blocks and allocates
// nothing. It reports false when a FIFO kind overflowed (and told the pool's
// fail hook); a Coalesce kind folds the submission into its pending run.
func (k *Kind[T]) Submit(at int64, x T) bool {
	if k.cfg.Rule == Coalesce {
		for cur := k.front.Load(); at > cur && !k.front.CompareAndSwap(cur, at); cur = k.front.Load() {
		}
	}
	select {
	case k.q <- job[T]{at, x}:
		return true
	default:
	}
	if k.cfg.Rule == Coalesce {
		return true
	}
	k.p.fail(fmt.Errorf("bgpool: %s queue overflow", k.cfg.Name))
	return false
}

// done records a job's completion at virtual time v and wakes the kind's
// waiters.
func (k *Kind[T]) done(v int64) {
	for cur := k.last.Load(); v > cur && !k.last.CompareAndSwap(cur, v); cur = k.last.Load() {
	}
	k.p.mu.Lock()
	k.gen++
	k.p.cond.Broadcast()
	k.p.mu.Unlock()
}

// LastDone returns the latest completion time recorded.
func (k *Kind[T]) LastDone() int64 { return k.last.Load() }

// Running returns how many of the kind's workers are inside a job.
func (k *Kind[T]) Running() int { return int(k.running.Load()) }

// Wait blocks until done reports true, asking it first and again after each
// of the kind's completions, and returns true; it returns false instead once
// the pool crash-stopped. done runs without the pool's lock held.
func (k *Kind[T]) Wait(done func() bool) bool {
	for {
		k.p.mu.Lock()
		gen := k.gen
		k.p.mu.Unlock()
		if done() {
			return true
		}
		k.p.mu.Lock()
		for k.gen == gen && !k.p.aborted.Load() {
			k.p.cond.Wait()
		}
		k.p.mu.Unlock()
		if k.p.aborted.Load() {
			return false
		}
	}
}

// work serves the queue until stop, then what is left in it.
func (k *Kind[T]) work(w int) {
	defer k.wg.Done()
	for {
		select {
		case j := <-k.q:
			k.serve(w, j)
			continue
		case <-k.halt:
		}
		select {
		case j := <-k.q:
			k.serve(w, j)
		default:
			return
		}
	}
}

// serve runs one job, and a Coalesce kind's job again while it asks for more,
// each time at the frontier; the crash-stop rule is checked before every run.
func (k *Kind[T]) serve(w int, j job[T]) {
	for more := true; more; {
		if k.abandoned() {
			if k.drop != nil {
				k.drop(j.x)
			}
			k.p.broadcast()
			return
		}
		if k.cfg.Rule == Coalesce {
			j.at = k.front.Load()
		}
		k.running.Add(1)
		var done int64
		done, more = k.run(w, j.at, j.x)
		k.running.Add(-1)
		k.done(done)
	}
}

func (k *Kind[T]) abandoned() bool {
	select {
	case <-k.halt:
		return k.cfg.Abandon || k.p.aborted.Load()
	default:
		return k.p.aborted.Load()
	}
}

func (k *Kind[T]) stop() {
	close(k.halt)
	k.wg.Wait()
}
