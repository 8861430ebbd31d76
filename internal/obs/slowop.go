package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// SlowOpPolicy configures triggered capture of outlier operations. An op
// whose total virtual latency exceeds its threshold gets a Dossier recorded.
//
// Thresholds come in two modes. Static: StaticNs (optionally refined per op
// type via PerOpNs) is the trigger for every op. Adaptive (StaticNs == 0): an
// op type's threshold is its own rolling Quantile latency times Multiplier,
// recomputed from the op's histogram every RefreshEvery records once MinCount
// records exist — so "slow" means "far outside this run's own distribution"
// without hand tuning.
type SlowOpPolicy struct {
	StaticNs     int64         // uniform static threshold (virtual ns); 0 = adaptive
	PerOpNs      [NumOps]int64 // per-op static overrides (0 = StaticNs / adaptive)
	Quantile     float64       // adaptive reference percentile (default 99)
	Multiplier   float64       // adaptive threshold = quantile × multiplier (default 8)
	MinCount     int64         // records before adaptive capture arms (default 512)
	RefreshEvery int64         // adaptive recompute period in records (default 256)
	Capacity     int           // dossier ring size (default 64)
	EventWindow  int           // max trace events copied per dossier (default 16)
	LookbackNs   int64         // extend the event window this far before op start
}

// Defaults for SlowOpPolicy zero fields.
const (
	DefaultSlowOpQuantile   = 99.0
	DefaultSlowOpMultiplier = 8.0
	DefaultSlowOpMinCount   = 512
	DefaultSlowOpRefresh    = 256
	DefaultSlowOpCapacity   = 64
	DefaultSlowOpWindow     = 16
)

func (p SlowOpPolicy) withDefaults() SlowOpPolicy {
	if p.Quantile <= 0 || p.Quantile > 100 {
		p.Quantile = DefaultSlowOpQuantile
	}
	if p.Multiplier <= 0 {
		p.Multiplier = DefaultSlowOpMultiplier
	}
	if p.MinCount <= 0 {
		p.MinCount = DefaultSlowOpMinCount
	}
	if p.RefreshEvery <= 0 {
		p.RefreshEvery = DefaultSlowOpRefresh
	}
	if p.Capacity <= 0 {
		p.Capacity = DefaultSlowOpCapacity
	}
	if p.EventWindow <= 0 {
		p.EventWindow = DefaultSlowOpWindow
	}
	if p.LookbackNs < 0 {
		p.LookbackNs = 0
	}
	return p
}

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
	adaptive [NumOps]bool

	mu    sync.Mutex
	ring  []Dossier
	start int
	n     int
	seq   uint64
}

// EnableSlowOps arms triggered slow-op capture on the collector. tr (may be
// nil) supplies the overlapping-events window; thresholds follow policy.
// Calling it again on an armed collector only replaces the policy-independent
// context, so dossiers survive engine reopen. Capture adds zero virtual time:
// it never advances a clock, and the sub-threshold path allocates nothing.
func (c *Collector) EnableSlowOps(policy SlowOpPolicy, tr *Trace) {
	if c == nil {
		return
	}
	if c.slow.Load() != nil {
		return
	}
	p := policy.withDefaults()
	sl := &slowState{policy: p, trace: tr, ring: make([]Dossier, p.Capacity)}
	for op := Op(0); op < NumOps; op++ {
		switch {
		case p.PerOpNs[op] > 0:
			sl.thr[op].Store(p.PerOpNs[op])
		case p.StaticNs > 0:
			sl.thr[op].Store(p.StaticNs)
		default:
			sl.adaptive[op] = true
			sl.thr[op].Store(math.MaxInt64) // disarmed until MinCount records
		}
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

// WriteSlowOpsJSONL writes the retained dossiers to w, one JSON object per
// line. With a deterministic schedule (single foreground thread) and an
// unwrapped trace ring the output is byte-identical across runs.
func (c *Collector) WriteSlowOpsJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, d := range c.SlowOps() {
		if err := enc.Encode(d); err != nil {
			return err
		}
	}
	return nil
}

// maybeRefresh recomputes op's adaptive threshold when due. count is the
// op histogram's record count after the current record.
func (sl *slowState) maybeRefresh(c *Collector, op Op, count int64) {
	if !sl.adaptive[op] || count < sl.policy.MinCount || count%sl.policy.RefreshEvery != 0 {
		return
	}
	q := c.hist[op].Percentile(sl.policy.Quantile)
	thr := int64(q * sl.policy.Multiplier)
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
		Adaptive:       sl.adaptive[s.op],
		Layers:         layers,
	}
	if fn, ok := sl.ctx.Load().(func() string); ok && fn != nil {
		d.FlowState = fn()
	}
	if sl.trace != nil {
		evs, truncated := sl.trace.EventsBetween(d.WindowStartVNs, end, sl.policy.EventWindow)
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
