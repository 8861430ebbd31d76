package sim

import (
	"slices"
	"sync"
	"sync/atomic"
)

// VMutex is a mutex whose critical sections are serialized in *virtual* time.
// A thread that acquires the mutex at virtual time t enters its critical
// section at max(t, time the previous holder released), pays the handoff
// cost, and — when other threads were queued behind it — an additional
// coherence penalty per waiter. This reproduces the paper's Observation 2:
// the shared-MemTable lock makes aggregate write throughput *fall* as user
// threads are added, because every critical section also grows with the
// number of contenders bouncing the lock cacheline.
type VMutex struct {
	mu       sync.Mutex
	freeAt   int64 // virtual time at which the lock becomes free
	start    int64 // virtual time the current holder entered
	held     int64 // waiters observed at acquire (drives the coherence tax)
	waiters  atomic.Int64
	costs    *CostModel
	acquires atomic.Int64
	waitedNs atomic.Int64
}

// NewVMutex returns a virtual mutex charging costs from cm.
func NewVMutex(cm *CostModel) *VMutex { return &VMutex{costs: cm} }

// Lock acquires the mutex on behalf of the thread owning clk. It advances the
// thread's clock over the virtual wait and the acquisition cost, and returns
// the virtual duration spent waiting (for latency breakdowns).
func (m *VMutex) Lock(clk *Clock) int64 {
	m.waiters.Add(1)
	m.mu.Lock()
	w := m.waiters.Add(-1)
	now := clk.Now()
	start := now
	if m.freeAt > start {
		start = m.freeAt
	}
	start += m.costs.LockHandoff + w*m.costs.LockCoherence
	clk.AdvanceTo(start)
	m.start = start
	m.held = w
	waited := start - now
	m.acquires.Add(1)
	m.waitedNs.Add(waited)
	return waited
}

// Unlock releases the mutex; the critical section is everything the thread's
// clock accumulated between Lock and Unlock, inflated by the coherence tax:
// with w threads spinning on the lock and the shared structure's cachelines,
// every access inside the critical section slows down, so the section's
// duration grows with the number of waiters. This is what makes aggregate
// write throughput *fall* as user threads are added to a shared-MemTable
// store (the paper's Figure 5(a)).
func (m *VMutex) Unlock(clk *Clock) {
	hold := clk.Now() - m.start
	if w := m.held; w > 0 && hold > 0 {
		clk.Advance(hold * w * m.costs.ContentionPerMille / 1000)
	}
	m.freeAt = clk.Now()
	m.mu.Unlock()
}

// Stats returns the total acquisitions and cumulative virtual wait.
func (m *VMutex) Stats() (acquires, waitedNs int64) {
	return m.acquires.Load(), m.waitedNs.Load()
}

// ServerPool models k identical background servers (e.g. flush threads) in
// virtual time. Submitting a job at virtual time t with duration d occupies
// the earliest-free server: it starts at max(t, serverFree), and the job
// completes at start+d. Callers that must wait for completion advance their
// own clock to the returned completion time.
type ServerPool struct {
	mu   sync.Mutex
	free []int64 // per-server virtual free time
	busy atomic.Int64
	jobs atomic.Int64
}

// NewServerPool creates a pool with k servers, all free at virtual time 0.
func NewServerPool(k int) *ServerPool {
	if k < 1 {
		k = 1
	}
	return &ServerPool{free: make([]int64, k)}
}

// Submit schedules a job of duration d that becomes runnable at virtual time
// t, and returns the virtual time at which it completes. The caller's clock
// is not advanced: fire-and-forget background work only delays callers that
// later Wait on the returned completion time.
func (p *ServerPool) Submit(t, d int64) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	best := 0
	for i := 1; i < len(p.free); i++ {
		if p.free[i] < p.free[best] {
			best = i
		}
	}
	start := t
	if p.free[best] > start {
		start = p.free[best]
	}
	done := start + d
	p.free[best] = done
	p.jobs.Add(1)
	p.busy.Add(d)
	return done
}

// EarliestFree returns the virtual time at which some server is free.
func (p *ServerPool) EarliestFree() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	min := p.free[0]
	for _, f := range p.free[1:] {
		if f < min {
			min = f
		}
	}
	return min
}

// LatestFree returns the virtual time at which every server is free: the end
// of the last job booked.
func (p *ServerPool) LatestFree() int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return slices.Max(p.free)
}

// Size returns the number of servers in the pool.
func (p *ServerPool) Size() int { return len(p.free) }

// Stats returns the number of jobs served and total busy virtual time.
func (p *ServerPool) Stats() (jobs, busyNs int64) { return p.jobs.Load(), p.busy.Load() }

// Bandwidth models a shared pipe (the PMem media write path) with a fixed
// service time per unit. Concurrent users serialize: each transfer starts at
// max(caller time, pipe free time).
type Bandwidth struct {
	mu     sync.Mutex
	freeAt int64
	units  atomic.Int64
}

// Acquire reserves the pipe at virtual time t for units*perUnit nanoseconds
// and returns the completion time.
func (b *Bandwidth) Acquire(t int64, units, perUnit int64) int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	start := t
	if b.freeAt > start {
		start = b.freeAt
	}
	done := start + units*perUnit
	b.freeAt = done
	b.units.Add(units)
	return done
}

// Units returns the cumulative units transferred.
func (b *Bandwidth) Units() int64 { return b.units.Load() }
