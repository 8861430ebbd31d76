package sim

import "sync/atomic"

// MaxLayers bounds the attribution-layer space for hardware tallies. Layer 0
// is "direct" (work not inside any named phase); layers 1..N map to the
// platform's phase labels (see hw.Phase.Layer). The array is deliberately a
// little larger than the current phase count so adding a phase never needs a
// tally migration.
const MaxLayers = 16

// TallyCell accumulates the hardware events charged to one attribution layer.
// Every field is monotonically increasing and updated with atomics, so cells
// are safe to bump from any simulated thread.
type TallyCell struct {
	Ns     atomic.Int64 // virtual work ns (Clock.Advance) under this layer
	WaitNs atomic.Int64 // virtual wait ns (Clock.AdvanceTo jumps) under this layer

	// PMem device events (mirrors pmem.Counters, attributed per layer).
	MediaWriteB  atomic.Int64
	MediaReadB   atomic.Int64
	CallerWriteB atomic.Int64
	LineArrivals atomic.Int64
	LineHits     atomic.Int64
	XPLineEvicts atomic.Int64
	RMWEvicts    atomic.Int64

	// LLC write-traffic events.
	LLCWritebackLines atomic.Int64 // dirty lines evicted to PMem by capacity
	LLCFlushLines     atomic.Int64 // dirty lines written back by clflush/clwb
}

// MemTally is one platform's per-layer hardware attribution table. A single
// MemTally is shared by every clock the machine creates (when observability
// is enabled), so summing its cells reproduces the device's global counters
// exactly: every charged event lands in exactly one cell.
type MemTally struct {
	cells [MaxLayers]TallyCell
}

// Cell returns the cell for layer i, clamping out-of-range labels to layer 0
// so a stray label can never index out of bounds.
func (t *MemTally) Cell(i int32) *TallyCell {
	if i < 0 || i >= MaxLayers {
		i = 0
	}
	return &t.cells[i]
}

// LayerCounters is a plain copy of one cell at an instant.
type LayerCounters struct {
	Ns                int64
	WaitNs            int64
	MediaWriteB       int64
	MediaReadB        int64
	CallerWriteB      int64
	LineArrivals      int64
	LineHits          int64
	XPLineEvicts      int64
	RMWEvicts         int64
	LLCWritebackLines int64
	LLCFlushLines     int64
}

// Add returns the sum c + o.
func (c LayerCounters) Add(o LayerCounters) LayerCounters {
	return LayerCounters{
		Ns:                c.Ns + o.Ns,
		WaitNs:            c.WaitNs + o.WaitNs,
		MediaWriteB:       c.MediaWriteB + o.MediaWriteB,
		MediaReadB:        c.MediaReadB + o.MediaReadB,
		CallerWriteB:      c.CallerWriteB + o.CallerWriteB,
		LineArrivals:      c.LineArrivals + o.LineArrivals,
		LineHits:          c.LineHits + o.LineHits,
		XPLineEvicts:      c.XPLineEvicts + o.XPLineEvicts,
		RMWEvicts:         c.RMWEvicts + o.RMWEvicts,
		LLCWritebackLines: c.LLCWritebackLines + o.LLCWritebackLines,
		LLCFlushLines:     c.LLCFlushLines + o.LLCFlushLines,
	}
}

// IsZero reports whether every counter is zero (used to skip empty layers in
// reports).
func (c LayerCounters) IsZero() bool { return c == LayerCounters{} }

// TallySnapshot is a consistent-enough copy of every layer's counters (each
// field individually atomic; per-experiment windows quiesce before reading).
type TallySnapshot [MaxLayers]LayerCounters

// Snapshot copies the tally. Safe on a nil receiver (returns zeros) so
// callers need not special-case obs-disabled machines.
func (t *MemTally) Snapshot() TallySnapshot {
	var s TallySnapshot
	if t == nil {
		return s
	}
	for i := range t.cells {
		c := &t.cells[i]
		s[i] = LayerCounters{
			Ns:                c.Ns.Load(),
			WaitNs:            c.WaitNs.Load(),
			MediaWriteB:       c.MediaWriteB.Load(),
			MediaReadB:        c.MediaReadB.Load(),
			CallerWriteB:      c.CallerWriteB.Load(),
			LineArrivals:      c.LineArrivals.Load(),
			LineHits:          c.LineHits.Load(),
			XPLineEvicts:      c.XPLineEvicts.Load(),
			RMWEvicts:         c.RMWEvicts.Load(),
			LLCWritebackLines: c.LLCWritebackLines.Load(),
			LLCFlushLines:     c.LLCFlushLines.Load(),
		}
	}
	return s
}

// Total folds every layer into one LayerCounters.
func (s TallySnapshot) Total() LayerCounters {
	var t LayerCounters
	for i := range s {
		t = t.Add(s[i])
	}
	return t
}
