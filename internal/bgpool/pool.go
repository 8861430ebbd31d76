// Package bgpool runs a store's background jobs on one host goroutine, in
// submission order. A pool owns that worker, its virtual-time server, its
// crash-stop rule, a completion broadcast that waiters re-check their
// predicates against, and a Close that drains the queue.
package bgpool

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw/sim"
)

// Config describes a pool.
type Config struct {
	Name   string
	Queue  int             // jobs the pool holds before it overflows
	Server *sim.ServerPool // the jobs' virtual server; nil gives the pool one
}

// Job is a pool's job body, run for a job submitted at virtual time at with
// payload x.
type Job[T any] func(at int64, x T)

// Pool is one store's background worker and its queue.
type Pool[T any] struct {
	Server *sim.ServerPool // the jobs book their work on it

	name    string
	fail    func(error)
	run     Job[T]
	drop    func(T)
	q       chan job[T]
	halt    chan struct{} // closed by Close
	exited  chan struct{} // closed when the worker returns
	aborted atomic.Bool
	running atomic.Int32
	mu      sync.Mutex
	cond    sync.Cond // broadcast on every completion and on Abort; L is mu
	gen     uint64    // completions so far; mu
}

type job[T any] struct {
	at int64
	x  T
}

// New starts a pool's worker. drop, when non-nil, is what a job the pool
// abandons at a crash-stop owes its submitter; fail receives an overflow.
func New[T any](cfg Config, run Job[T], drop func(T), fail func(error)) *Pool[T] {
	p := &Pool[T]{Server: cfg.Server, name: cfg.Name, fail: fail, run: run, drop: drop,
		q: make(chan job[T], cfg.Queue), halt: make(chan struct{}), exited: make(chan struct{})}
	if p.Server == nil {
		p.Server = sim.NewServerPool(1)
	}
	p.cond.L = &p.mu
	go p.work()
	return p
}

// Submit queues a job at virtual time at. It never blocks and allocates
// nothing. It reports false when the queue overflowed, which is a bug, and
// tells the fail hook.
func (p *Pool[T]) Submit(at int64, x T) bool {
	select {
	case p.q <- job[T]{at, x}:
		return true
	default:
	}
	p.fail(fmt.Errorf("bgpool: %s queue overflow", p.name))
	return false
}

// Running returns 1 while the worker is inside a job, else 0.
func (p *Pool[T]) Running() int { return int(p.running.Load()) }

// Abort crash-stops the pool: no queued job runs any more (the drop hook sees
// it instead) and every waiter wakes. A job already running finishes.
func (p *Pool[T]) Abort() {
	p.aborted.Store(true)
	p.broadcast()
}

func (p *Pool[T]) broadcast() {
	p.mu.Lock()
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Close waits until the worker has run (or, after Abort, dropped) what was
// queued, and stops it. Call it once.
func (p *Pool[T]) Close() {
	close(p.halt)
	<-p.exited
}

// Wait blocks until done reports true, asking it first and again after each
// completion, and returns true; it returns false instead once the pool
// crash-stopped. done runs without the pool's lock held.
func (p *Pool[T]) Wait(done func() bool) bool {
	for {
		p.mu.Lock()
		gen := p.gen
		p.mu.Unlock()
		if done() {
			return true
		}
		p.mu.Lock()
		for p.gen == gen && !p.aborted.Load() {
			p.cond.Wait()
		}
		p.mu.Unlock()
		if p.aborted.Load() {
			return false
		}
	}
}

// work serves the queue until Close, then what is left in it.
func (p *Pool[T]) work() {
	defer close(p.exited)
	for {
		select {
		case j := <-p.q:
			p.serve(j)
			continue
		case <-p.halt:
		}
		select {
		case j := <-p.q:
			p.serve(j)
		default:
			return
		}
	}
}

// serve runs one job, or drops it once the pool crash-stopped, and wakes the
// waiters.
func (p *Pool[T]) serve(j job[T]) {
	if p.aborted.Load() {
		if p.drop != nil {
			p.drop(j.x)
		}
		p.broadcast()
		return
	}
	p.running.Store(1)
	p.run(j.at, j.x)
	p.running.Store(0)
	p.mu.Lock()
	p.gen++
	p.cond.Broadcast()
	p.mu.Unlock()
}
