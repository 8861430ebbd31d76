package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// SlowOpPolicy configures triggered capture of outlier operations. An op
// whose total virtual latency exceeds its threshold gets a Dossier recorded.
//
// Thresholds come in two modes. Static: StaticNs is the trigger for every op.
// Adaptive (StaticNs == 0): an op type's threshold is its own rolling p99
// latency times 8, recomputed from the op's histogram every 256 records once
// 512 records exist — so "slow" means "far outside this run's own
// distribution" without hand tuning.
type SlowOpPolicy struct {
	StaticNs   int64 // uniform static threshold (virtual ns); 0 = adaptive
	LookbackNs int64 // extend the event window this far before op start
}

// The adaptive rule and the dossier ring's shape.
const (
	slowOpQuantile   = 99.0 // adaptive reference percentile
	slowOpMultiplier = 8.0  // adaptive threshold = quantile × multiplier
	slowOpMinCount   = 512  // records before adaptive capture arms
	slowOpRefresh    = 256  // adaptive recompute period in records
	slowOpCapacity   = 64   // dossier ring size
	slowOpWindow     = 16   // max trace events copied per dossier
)

// Dossier is the forensic record of one slow operation: what it was, where
// its virtual time went (per layer, and split wait vs busy), the flow-control
// state it ran under, and every retained trace event that overlapped its
// window — the flush/seal/compaction/stall activity it collided with.
type Dossier struct {
	Seq             uint64    `json:"seq"`
	Op              string    `json:"op"`
	Core            int       `json:"core"`
	StartVNs        int64     `json:"start_v_ns"`
	EndVNs          int64     `json:"end_v_ns"`
	WindowStartVNs  int64     `json:"window_start_v_ns"` // StartVNs - policy lookback
	TotalNs         int64     `json:"total_ns"`
	WaitNs          int64     `json:"wait_ns"`
	BusyNs          int64     `json:"busy_ns"`
	ThresholdNs     int64     `json:"threshold_ns"`
	Adaptive        bool      `json:"adaptive,omitempty"`
	FlowState       string    `json:"flow_state,omitempty"`
	Layers          []OpLayer `json:"layers,omitempty"`
	Events          []Event   `json:"events,omitempty"`
	EventsTruncated bool      `json:"events_truncated,omitempty"`
}

// slowState is a Collector's capture machinery. The hot path (every Span.End)
// touches only thr[op]: one atomic load and a compare, no allocation; the
// capture path below it runs only for ops past the threshold.
type slowState struct {
	policy   SlowOpPolicy
	trace    *Trace
	ctx      atomic.Value // func() string: flow-state provider, rebindable
	thr      [NumOps]atomic.Int64
	adaptive bool // StaticNs unset: thresholds follow each op's histogram
	// next is the record count at which op's adaptive threshold is next
	// recomputed; the recorder that advances it past its count refreshes.
	next [NumOps]atomic.Int64

	mu    sync.Mutex
	ring  []Dossier
	start int
	n     int
	seq   uint64
}

// EnableSlowOps arms triggered slow-op capture on the collector. tr (may be
// nil) supplies the overlapping-events window; thresholds follow policy.
// Calling it again on an armed collector does nothing, so dossiers and
// thresholds survive engine reopen (SetSlowOpContext rebinds the flow-state
// context). Capture adds zero virtual time: it never advances a clock, and
// the sub-threshold path allocates nothing.
func (c *Collector) EnableSlowOps(policy SlowOpPolicy, tr *Trace) {
	if c == nil {
		return
	}
	if c.slow.Load() != nil {
		return
	}
	policy.LookbackNs = max(policy.LookbackNs, 0)
	sl := &slowState{policy: policy, trace: tr, ring: make([]Dossier, slowOpCapacity), adaptive: policy.StaticNs <= 0}
	for op := Op(0); op < NumOps; op++ {
		if !sl.adaptive {
			sl.thr[op].Store(policy.StaticNs)
			continue
		}
		sl.thr[op].Store(math.MaxInt64) // disarmed until slowOpMinCount records
		sl.next[op].Store(slowOpMinCount)
	}
	c.slow.Store(sl)
}

// SetSlowOpContext installs (or rebinds, e.g. after a simulated crash) the
// flow-state provider stamped into each dossier.
func (c *Collector) SetSlowOpContext(fn func() string) {
	if c == nil || fn == nil {
		return
	}
	if sl := c.slow.Load(); sl != nil {
		sl.ctx.Store(fn)
	}
}

// SlowOpThreshold returns op's current effective capture threshold in virtual
// ns (MaxInt64 when capture is disarmed or disabled).
func (c *Collector) SlowOpThreshold(op Op) int64 {
	if c == nil || op < 0 || op >= NumOps {
		return math.MaxInt64
	}
	sl := c.slow.Load()
	if sl == nil {
		return math.MaxInt64
	}
	return sl.thr[op].Load()
}

// SlowOps returns the retained dossiers, oldest first.
func (c *Collector) SlowOps() []Dossier {
	if c == nil {
		return nil
	}
	sl := c.slow.Load()
	if sl == nil {
		return nil
	}
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := make([]Dossier, 0, sl.n)
	for i := 0; i < sl.n; i++ {
		out = append(out, sl.ring[(sl.start+i)%len(sl.ring)])
	}
	return out
}

// maybeRefresh recomputes op's adaptive threshold when count, the op
// histogram's record count read after the current record, has reached the
// next refresh point. Concurrent recorders may read the same count, or skip
// the exact multiple; the CAS on next lets exactly one of them refresh per
// period.
func (sl *slowState) maybeRefresh(c *Collector, op Op, count int64) {
	if !sl.adaptive {
		return
	}
	n := sl.next[op].Load()
	if count < n || !sl.next[op].CompareAndSwap(n, n+slowOpRefresh*((count-n)/slowOpRefresh+1)) {
		return
	}
	q := c.hist[op].Percentile(slowOpQuantile)
	thr := int64(q * slowOpMultiplier)
	if thr < 1 {
		thr = 1
	}
	sl.thr[op].Store(thr)
}

// capture builds and stores a dossier for a span that crossed the threshold.
// Runs on the slow path only.
func (sl *slowState) capture(s Span, total, waitNs int64, layers []OpLayer, thr int64) {
	end := s.start + total
	d := Dossier{
		Op:             s.op.String(),
		Core:           s.th.Core,
		StartVNs:       s.start,
		EndVNs:         end,
		WindowStartVNs: s.start - sl.policy.LookbackNs,
		TotalNs:        total,
		WaitNs:         waitNs,
		BusyNs:         total - waitNs,
		ThresholdNs:    thr,
		Adaptive:       sl.adaptive,
		Layers:         layers,
	}
	if fn, ok := sl.ctx.Load().(func() string); ok && fn != nil {
		d.FlowState = fn()
	}
	if sl.trace != nil {
		evs, truncated := sl.trace.EventsBetween(d.WindowStartVNs, end, slowOpWindow)
		// Seq numbers reflect host-side emission interleaving, not the virtual
		// schedule; zero them and order by virtual time so dossiers of a
		// deterministic run are byte-identical.
		for i := range evs {
			evs[i].Seq = 0
		}
		sort.Slice(evs, func(i, j int) bool {
			if evs[i].VNs != evs[j].VNs {
				return evs[i].VNs < evs[j].VNs
			}
			if evs[i].Type != evs[j].Type {
				return evs[i].Type < evs[j].Type
			}
			return fmt.Sprint(evs[i].Attrs) < fmt.Sprint(evs[j].Attrs)
		})
		d.Events = evs
		d.EventsTruncated = truncated
	}
	sl.mu.Lock()
	sl.seq++
	d.Seq = sl.seq
	if sl.n < len(sl.ring) {
		sl.ring[(sl.start+sl.n)%len(sl.ring)] = d
		sl.n++
	} else {
		sl.ring[sl.start] = d
		sl.start = (sl.start + 1) % len(sl.ring)
	}
	sl.mu.Unlock()
}

// VerifySlowOps checks dossier invariants against the run they were captured
// in and returns a description of each violation: layer ns sums to at most
// the op latency, the wait/busy split sums exactly, every attached event lies
// inside the dossier's window, and the latency actually exceeds the recorded
// threshold.
func VerifySlowOps(ds []Dossier) []string {
	var bad []string
	for _, d := range ds {
		var sum int64
		for _, l := range d.Layers {
			sum += l.Ns
		}
		if float64(sum) > float64(d.TotalNs)*1.01 {
			bad = append(bad, fmt.Sprintf("dossier %d (%s): layer ns sum %d > total %d", d.Seq, d.Op, sum, d.TotalNs))
		}
		if d.WaitNs < 0 || d.WaitNs > d.TotalNs {
			bad = append(bad, fmt.Sprintf("dossier %d (%s): wait ns %d outside [0,%d]", d.Seq, d.Op, d.WaitNs, d.TotalNs))
		}
		if d.WaitNs+d.BusyNs != d.TotalNs {
			bad = append(bad, fmt.Sprintf("dossier %d (%s): wait %d + busy %d != total %d", d.Seq, d.Op, d.WaitNs, d.BusyNs, d.TotalNs))
		}
		if d.TotalNs < d.ThresholdNs {
			bad = append(bad, fmt.Sprintf("dossier %d (%s): total %d below threshold %d", d.Seq, d.Op, d.TotalNs, d.ThresholdNs))
		}
		if d.WindowStartVNs > d.StartVNs || d.EndVNs-d.StartVNs != d.TotalNs {
			bad = append(bad, fmt.Sprintf("dossier %d (%s): inconsistent window [%d,%d,%d]", d.Seq, d.Op, d.WindowStartVNs, d.StartVNs, d.EndVNs))
		}
		for _, ev := range d.Events {
			if ev.VNs < d.WindowStartVNs || ev.VNs > d.EndVNs {
				bad = append(bad, fmt.Sprintf("dossier %d (%s): event %s@%d outside window [%d,%d]",
					d.Seq, d.Op, ev.Type, ev.VNs, d.WindowStartVNs, d.EndVNs))
			}
		}
	}
	return bad
}
