// Package sim provides the virtual-time substrate used by the hardware
// models. Real Optane PMem latencies and multi-core contention cannot be
// reproduced faithfully from a garbage-collected runtime on shared hardware,
// so every simulated thread carries its own virtual clock (in nanoseconds)
// and every modelled hardware operation charges a calibrated latency to the
// clock of the thread performing it. Shared resources (mutexes, flush-thread
// pools, PMem write bandwidth) serialize requests in virtual time, which is
// what reproduces the contention collapse the paper measures.
//
// Throughput for an experiment is then ops / (max over threads of final
// virtual time - start), which is deterministic, independent of the host
// machine, and preserves the relative shapes the paper reports.
package sim

import "sync/atomic"

// Clock is one simulated thread's virtual clock. Clocks are advanced only by
// their owning goroutine but read by reporters, so the counter is atomic.
//
// A clock optionally carries an attribution context for observability: a
// pointer to the machine-wide MemTally and a layer label. Every virtual
// nanosecond the clock advances — and every hardware event the devices charge
// against it — is tallied into the cell for the clock's current label, which
// is how per-layer attribution works without any virtual-time overhead (the
// tally bumps are host-side atomic adds that never advance the clock).
type Clock struct {
	ns    atomic.Int64
	wait  atomic.Int64 // total ns spent blocked (AdvanceTo jumps)
	label atomic.Int32 // attribution layer; 0 = direct/unlabeled
	tally *MemTally    // set once at creation, nil when obs is disabled
	boot  uint64       // set once at creation: the platform boot it belongs to
}

// NewClock returns a clock of platform boot boot that tallies into the
// machine-wide tally t (nil when obs is disabled); Machine.NewThread makes
// every thread's clock with it. The zero Clock has no tally and belongs to a
// platform's first boot.
func NewClock(t *MemTally, boot uint64) *Clock { return &Clock{tally: t, boot: boot} }

// Boot returns the boot the clock belongs to; the cache refuses other boots'.
func (c *Clock) Boot() uint64 { return c.boot }

// WaitNs returns the total virtual ns this clock spent blocked (the sum of
// all AdvanceTo jumps), for wait-vs-busy splits in op forensics.
func (c *Clock) WaitNs() int64 { return c.wait.Load() }

// SetLabel switches the clock's attribution layer and returns the previous
// label so callers can restore it (labels nest like phases).
func (c *Clock) SetLabel(l int32) int32 {
	prev := c.label.Load()
	c.label.Store(l)
	return prev
}

// Label returns the clock's current attribution layer.
func (c *Clock) Label() int32 { return c.label.Load() }

// Cell returns the tally cell hardware events issued under this clock should
// be charged to, or nil when observability is disabled.
func (c *Clock) Cell() *TallyCell {
	if c.tally == nil {
		return nil
	}
	return c.tally.Cell(c.label.Load())
}

// Now returns the clock's current virtual time in nanoseconds.
func (c *Clock) Now() int64 { return c.ns.Load() }

// Advance moves the clock forward by d nanoseconds and returns the new time.
func (c *Clock) Advance(d int64) int64 {
	if d < 0 {
		d = 0
	}
	if d > 0 && c.tally != nil {
		c.tally.Cell(c.label.Load()).Ns.Add(d)
	}
	return c.ns.Add(d)
}

// AdvanceTo moves the clock forward to at least t (it never moves backward)
// and returns the resulting time. Used when a thread blocks on a resource
// that frees up at virtual time t. The jump is tallied as wait time, not
// work, so layer work sums stay meaningful.
func (c *Clock) AdvanceTo(t int64) int64 {
	for {
		cur := c.ns.Load()
		if cur >= t {
			return cur
		}
		if c.ns.CompareAndSwap(cur, t) {
			c.wait.Add(t - cur)
			if c.tally != nil {
				c.tally.Cell(c.label.Load()).WaitNs.Add(t - cur)
			}
			return t
		}
	}
}
