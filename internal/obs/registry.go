package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
)

// MetricKind distinguishes monotonically increasing counters (which support
// interval deltas) from point-in-time gauges (which do not).
type MetricKind string

// Metric kinds.
const (
	KindCounter MetricKind = "counter"
	KindGauge   MetricKind = "gauge"
)

// Registry maps metric names to read functions. Engines and devices register
// closures over their live counters; Gather evaluates them all into one
// Snapshot. Registration order is preserved in exposition output so reports
// are stable. Re-registering a name replaces its reader in place (the engine
// behind a name changes across SimulateCrash).
type Registry struct {
	mu      sync.Mutex
	order   []string
	entries map[string]regEntry
}

type regEntry struct {
	kind    MetricKind
	intFn   func() int64
	floatFn func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: make(map[string]regEntry)}
}

// Counter registers fn as a monotonically increasing integer metric.
func (r *Registry) Counter(name string, fn func() int64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.entries[name]; !ok {
		r.order = append(r.order, name)
	}
	r.entries[name] = regEntry{kind: KindCounter, intFn: fn}
	r.mu.Unlock()
}

// Gauge registers fn as a point-in-time float metric.
func (r *Registry) Gauge(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	if _, ok := r.entries[name]; !ok {
		r.order = append(r.order, name)
	}
	r.entries[name] = regEntry{kind: KindGauge, floatFn: fn}
	r.mu.Unlock()
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.order))
	copy(out, r.order)
	return out
}

// Gather evaluates every metric into a Snapshot.
func (r *Registry) Gather() *Snapshot {
	if r == nil {
		return &Snapshot{}
	}
	r.mu.Lock()
	names := make([]string, len(r.order))
	copy(names, r.order)
	entries := make([]regEntry, len(names))
	for i, n := range names {
		entries[i] = r.entries[n]
	}
	r.mu.Unlock()

	s := &Snapshot{Metrics: make([]Metric, 0, len(names))}
	for i, n := range names {
		e := entries[i]
		m := Metric{Name: n, Kind: e.kind}
		switch e.kind {
		case KindCounter:
			m.Int = e.intFn()
		case KindGauge:
			m.Float = e.floatFn()
		}
		s.Metrics = append(s.Metrics, m)
	}
	return s
}

// Metric is one evaluated metric. Counters populate Int, gauges Float.
type Metric struct {
	Name  string     `json:"name"`
	Kind  MetricKind `json:"kind"`
	Int   int64      `json:"int,omitempty"`
	Float float64    `json:"float,omitempty"`
}

// Snapshot is one evaluation of a registry, ordered and JSON-marshalable.
type Snapshot struct {
	Metrics []Metric `json:"metrics"`
}

// Get finds a metric by name.
func (s *Snapshot) Get(name string) (Metric, bool) {
	if s == nil {
		return Metric{}, false
	}
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Int returns the named counter's value (0 when absent).
func (s *Snapshot) Int(name string) int64 {
	m, _ := s.Get(name)
	return m.Int
}

// Float returns the named gauge's value (0 when absent).
func (s *Snapshot) Float(name string) float64 {
	m, _ := s.Get(name)
	return m.Float
}

// WriteText renders the snapshot in a stable name-per-line text exposition.
func (s *Snapshot) WriteText(w io.Writer) {
	if s == nil {
		return
	}
	width := 0
	for _, m := range s.Metrics {
		if len(m.Name) > width {
			width = len(m.Name)
		}
	}
	for _, m := range s.Metrics {
		switch m.Kind {
		case KindGauge:
			fmt.Fprintf(w, "%-*s %.4f\n", width, m.Name, m.Float)
		default:
			fmt.Fprintf(w, "%-*s %d\n", width, m.Name, m.Int)
		}
	}
}

// MarshalSorted renders the snapshot as JSON with metrics sorted by name,
// for golden-file comparisons independent of registration order.
func (s *Snapshot) MarshalSorted() ([]byte, error) {
	c := &Snapshot{Metrics: make([]Metric, len(s.Metrics))}
	copy(c.Metrics, s.Metrics)
	sort.Slice(c.Metrics, func(i, j int) bool { return c.Metrics[i].Name < c.Metrics[j].Name })
	return json.MarshalIndent(c, "", "  ")
}

// SafeRatio returns num/den, or a NaN-safe 0 when den is zero — reporting
// code uses it so "no traffic yet" reads as 0 instead of NaN, while the raw
// numerator and denominator are exposed alongside for disambiguation.
func SafeRatio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
