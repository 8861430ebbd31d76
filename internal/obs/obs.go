// Package obs is the telemetry layer for the simulated stack: per-operation
// hardware attribution spans, a bounded lifecycle event trace, and a metrics
// registry with text and JSON exposition. It sits directly above internal/hw
// (and internal/histogram) so every engine, the bench harness, and the CLI
// tools share one set of metric names and one consistency check
// (RunReport.Verify).
//
// The attribution model has two coordinated halves:
//
//   - The hardware half lives in sim.MemTally: every clock the machine
//     creates (once Machine.EnableObs has run) carries a layer label, and the
//     PMem/LLC models tally each charged event — virtual ns, media bytes,
//     XPBuffer arrivals/hits, XPLine evictions — into the cell for the label
//     active at charge time. Summing cells reproduces the device's global
//     counters exactly, because every event lands in exactly one cell.
//
//   - The software half is the Span API here: a span delta-snapshots the
//     thread's virtual clock and per-phase Breakdown at operation start and
//     end, records total latency into a per-op-type histogram, and attributes
//     the per-phase deltas to layers (residual time that ran under no phase
//     goes to the "direct" layer 0), so per-layer ns sums to the span total
//     by construction.
//
// Observability adds zero virtual time: tallies and spans are host-side
// bookkeeping that never advance a clock, so enabling obs cannot perturb the
// simulated results it measures.
package obs

import (
	"sync/atomic"

	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
)

// Op classifies an operation for per-type attribution.
type Op int

// Operation types tracked by a Collector.
const (
	OpPut Op = iota
	OpGet
	OpDelete
	OpScan
	OpRMW
	OpBatch
	OpFlush
	OpRecovery
	OpDeleteRange
	OpIngest
	NumOps
)

var opNames = [NumOps]string{"put", "get", "delete", "scan", "rmw", "batch", "flush", "recovery", "delete_range", "ingest"}

// String returns the op's short name.
func (o Op) String() string {
	if o < 0 || o >= NumOps {
		return "unknown"
	}
	return opNames[o]
}

// foreground reports whether the op runs on a client thread (and therefore
// counts toward the thread-busy-time invariant in RunReport.Verify).
func (o Op) foreground() bool { return o != OpFlush && o != OpRecovery }

// Collector accumulates per-op-type latency histograms and per-layer virtual
// time. All methods are safe for concurrent use and nil-safe, so call sites
// need no obs-enabled checks.
type Collector struct {
	hist    [NumOps]*histogram.H
	layerNs [NumOps][sim.MaxLayers]atomic.Int64
	totalNs [NumOps]atomic.Int64

	slow atomic.Pointer[slowState] // nil until EnableSlowOps
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	c := &Collector{}
	for i := range c.hist {
		c.hist[i] = histogram.New()
	}
	return c
}

// Hist returns the latency histogram for op (nil on a nil collector).
func (c *Collector) Hist(op Op) *histogram.H {
	if c == nil || op < 0 || op >= NumOps {
		return nil
	}
	return c.hist[op]
}

// LayerNs returns the virtual ns attributed to (op, layer) so far.
func (c *Collector) LayerNs(op Op, layer int) int64 {
	if c == nil || op < 0 || op >= NumOps || layer < 0 || layer >= sim.MaxLayers {
		return 0
	}
	return c.layerNs[op][layer].Load()
}

// Span is one in-flight operation's attribution window. The zero Span is a
// no-op, so disabled paths cost nothing but two branch checks.
type Span struct {
	c      *Collector
	th     *hw.Thread
	op     Op
	start  int64
	wait   int64
	phases hw.Breakdown
}

// StartOp opens a span for op on thread th. Safe on a nil collector or nil
// thread (returns a no-op span).
func (c *Collector) StartOp(th *hw.Thread, op Op) Span {
	if c == nil || th == nil || op < 0 || op >= NumOps {
		return Span{}
	}
	return Span{c: c, th: th, op: op,
		start: th.Clock.Now(), wait: th.Clock.WaitNs(), phases: th.PhaseBreakdown()}
}

// End closes the span: the clock delta becomes the op's recorded latency, and
// the per-phase Breakdown delta is attributed to the matching layers, with
// any residual (time outside every phase) attributed to the direct layer.
// When slow-op capture is armed and the latency crosses the op's threshold,
// a Dossier is recorded; the sub-threshold check is one atomic load.
// Returns the span's total virtual ns.
func (s Span) End() int64 {
	if s.c == nil {
		return 0
	}
	total := s.th.Clock.Now() - s.start
	d := s.th.PhaseBreakdown().Sub(s.phases)
	var attributed int64
	for p := 0; p < hw.NumPhases; p++ {
		if d[p] != 0 {
			s.c.layerNs[s.op][hw.Phase(p).Layer()].Add(d[p])
			attributed += d[p]
		}
	}
	resid := total - attributed
	if resid > 0 {
		s.c.layerNs[s.op][0].Add(resid)
	}
	s.c.totalNs[s.op].Add(total)
	s.c.hist[s.op].Record(total)
	if sl := s.c.slow.Load(); sl != nil {
		sl.maybeRefresh(s.c, s.op, s.c.hist[s.op].Count())
		if thr := sl.thr[s.op].Load(); total > thr {
			var layers []OpLayer
			if resid > 0 {
				layers = append(layers, OpLayer{Layer: hw.LayerName(0), Ns: resid})
			}
			for p := 0; p < hw.NumPhases; p++ {
				if d[p] != 0 {
					layers = append(layers, OpLayer{Layer: hw.LayerName(int(hw.Phase(p).Layer())), Ns: d[p]})
				}
			}
			sl.capture(s, total, s.th.Clock.WaitNs()-s.wait, layers, thr)
		}
	}
	return total
}
