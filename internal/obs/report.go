package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"cachekv/internal/blockcache"
	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
)

// Schema tags every report this package emits, so consumers can reject
// payloads from a different era. Bump on breaking changes.
const Schema = "cachekv.obs/v1"

// Canonical metric names shared by every tool's registry, so the same report
// parser works against cachekv-bench, ycsb, crashsweep, and cachekv-cli
// output. Verify's invariants are phrased over these names.
const (
	MPMemLineArrivals = "pmem_line_arrivals"
	MPMemLineHits     = "pmem_line_hits"
	MPMemXPLineEvicts = "pmem_xpline_evicts"
	MPMemRMWEvicts    = "pmem_rmw_evicts"
	MPMemMediaReadB   = "pmem_media_read_bytes"
	MPMemMediaWriteB  = "pmem_media_write_bytes"
	MPMemCallerWriteB = "pmem_caller_write_bytes"
	MPMemWriteHit     = "pmem_write_hit_ratio"
	MPMemWriteAmp     = "pmem_write_amplification"

	MLLCHits       = "llc_hits"
	MLLCMisses     = "llc_misses"
	MLLCProbes     = "llc_probes"
	MLLCEvictions  = "llc_evictions"
	MLLCWritebacks = "llc_writebacks"
	MLLCFlushes    = "llc_flush_lines"
	MLLCHitRatio   = "llc_hit_ratio"

	MBlockCacheHits   = "block_cache_hits"
	MBlockCacheMisses = "block_cache_misses"
	MBlockCacheProbes = "block_cache_probes"
	MBlockCacheRatio  = "block_cache_hit_ratio"
	// The two ways a foreground read (a Get or a scan iterator) serves a
	// block-cache miss: reading the block in place on PMem, or (second
	// touch) copying it into the cache. Compaction misses, which always
	// fill, and blocks too large for the in-place window are the rest.
	MSSTPointDirect     = "sst_point_direct"
	MBlockCacheAdmitted = "blockcache_admitted"

	MFilterProbes    = "filter_probes"
	MFilterNegatives = "filter_negatives"
	MFilterNegRatio  = "filter_negative_ratio"

	MTraceEvents  = "trace_events"
	MTraceDropped = "trace_dropped_total"
)

// RegisterMachine registers the platform's hardware counters (PMem device and
// LLC) under the canonical names.
func RegisterMachine(r *Registry, m *hw.Machine) {
	if r == nil || m == nil {
		return
	}
	dev := m.PMem
	r.Counter(MPMemLineArrivals, func() int64 { return dev.Counters.LineArrivals.Load() })
	r.Counter(MPMemLineHits, func() int64 { return dev.Counters.LineHits.Load() })
	r.Counter(MPMemXPLineEvicts, func() int64 { return dev.Counters.XPLineEvicts.Load() })
	r.Counter(MPMemRMWEvicts, func() int64 { return dev.Counters.RMWEvicts.Load() })
	r.Counter(MPMemMediaReadB, func() int64 { return dev.Counters.MediaReadB.Load() })
	r.Counter(MPMemMediaWriteB, func() int64 { return dev.Counters.MediaWriteB.Load() })
	r.Counter(MPMemCallerWriteB, func() int64 { return dev.Counters.CallerWriteB.Load() })
	r.Gauge(MPMemWriteHit, func() float64 {
		return SafeRatio(dev.Counters.LineHits.Load(), dev.Counters.LineArrivals.Load())
	})
	r.Gauge(MPMemWriteAmp, func() float64 {
		return SafeRatio(dev.Counters.MediaWriteB.Load(), dev.Counters.CallerWriteB.Load())
	})
	llc := m.Cache
	r.Counter(MLLCHits, func() int64 { return llc.Stats().Hits })
	r.Counter(MLLCMisses, func() int64 { return llc.Stats().Misses })
	r.Counter(MLLCProbes, func() int64 { s := llc.Stats(); return s.Hits + s.Misses })
	r.Counter(MLLCEvictions, func() int64 { return llc.Stats().Evictions })
	r.Counter(MLLCWritebacks, func() int64 { return llc.Stats().Writebacks })
	r.Counter(MLLCFlushes, func() int64 { return llc.Stats().Flushes })
	r.Gauge(MLLCHitRatio, func() float64 {
		s := llc.Stats()
		return SafeRatio(s.Hits, s.Hits+s.Misses)
	})
}

// ObsRegistrar is implemented by engines that publish their own counters.
type ObsRegistrar interface {
	RegisterObs(*Registry)
}

// blockCacheStatser / filterStatser mirror the optional interfaces cachekv's
// Metrics already probes on engines.
type blockCacheStatser interface {
	BlockCacheStats() blockcache.Stats
}
type filterStatser interface {
	FilterStats() (probes, negatives int64)
}

// RegisterKV registers whatever observability surfaces the engine exposes:
// block-cache stats, filter stats, and any engine-specific counters (via
// ObsRegistrar).
func RegisterKV(r *Registry, db any) {
	if r == nil || db == nil {
		return
	}
	if bc, ok := db.(blockCacheStatser); ok {
		r.Counter(MBlockCacheHits, func() int64 { return bc.BlockCacheStats().Hits })
		r.Counter(MBlockCacheMisses, func() int64 { return bc.BlockCacheStats().Misses })
		r.Counter(MBlockCacheProbes, func() int64 { st := bc.BlockCacheStats(); return st.Hits + st.Misses })
		r.Gauge(MBlockCacheRatio, func() float64 { return bc.BlockCacheStats().HitRatio() })
		r.Counter(MSSTPointDirect, func() int64 { return bc.BlockCacheStats().Direct })
		r.Counter(MBlockCacheAdmitted, func() int64 { return bc.BlockCacheStats().Admitted })
	}
	if f, ok := db.(filterStatser); ok {
		r.Counter(MFilterProbes, func() int64 { p, _ := f.FilterStats(); return p })
		r.Counter(MFilterNegatives, func() int64 { _, n := f.FilterStats(); return n })
		r.Gauge(MFilterNegRatio, func() float64 { p, n := f.FilterStats(); return SafeRatio(n, p) })
	}
	if reg, ok := db.(ObsRegistrar); ok {
		reg.RegisterObs(r)
	}
}

// RegisterTrace publishes a trace's emission counters.
func RegisterTrace(r *Registry, t *Trace) {
	if r == nil || t == nil {
		return
	}
	r.Counter(MTraceEvents, func() int64 { return int64(t.Seq()) })
	r.Counter(MTraceDropped, func() int64 { return int64(t.Dropped()) })
}

// OpLayer is one layer's share of an op type's virtual time.
type OpLayer struct {
	Layer string `json:"layer"`
	Ns    int64  `json:"ns"`
}

// OpStat is one op type's latency distribution plus per-layer attribution.
type OpStat struct {
	Op      string            `json:"op"`
	Count   int64             `json:"count"`
	TotalNs int64             `json:"total_ns"`
	Latency histogram.Summary `json:"latency"`
	Layers  []OpLayer         `json:"layers,omitempty"`
}

// LayerStat is one attribution layer's machine-wide hardware totals.
type LayerStat struct {
	Layer             string `json:"layer"`
	Ns                int64  `json:"ns"`
	WaitNs            int64  `json:"wait_ns,omitempty"`
	MediaWriteB       int64  `json:"media_write_bytes"`
	MediaReadB        int64  `json:"media_read_bytes"`
	CallerWriteB      int64  `json:"caller_write_bytes"`
	LineArrivals      int64  `json:"line_arrivals"`
	LineHits          int64  `json:"line_hits"`
	XPLineEvicts      int64  `json:"xpline_evicts"`
	RMWEvicts         int64  `json:"rmw_evicts"`
	LLCWritebackLines int64  `json:"llc_writeback_lines"`
	LLCFlushLines     int64  `json:"llc_flush_lines"`
}

// RunReport is one workload run's full telemetry: throughput, per-op-type
// attribution, machine-wide per-layer hardware totals, the metrics snapshot,
// and (optionally) the retained event trace. It deliberately carries no
// wall-clock timestamps so identical runs produce identical reports.
type RunReport struct {
	Engine         string      `json:"engine"`
	Workload       string      `json:"workload"`
	Ops            int64       `json:"ops"`
	Threads        int         `json:"threads"`
	ElapsedVNs     int64       `json:"elapsed_v_ns"`
	ThreadVNs      int64       `json:"thread_v_ns,omitempty"`
	KopsPerSec     float64     `json:"kops_per_sec"`
	OpStats        []OpStat    `json:"op_stats,omitempty"`
	Layers         []LayerStat `json:"layers,omitempty"`
	Metrics        *Snapshot   `json:"metrics,omitempty"`
	Events         []Event     `json:"events,omitempty"`
	SlowOps        []Dossier   `json:"slow_ops,omitempty"`
	SlowOpsDropped uint64      `json:"slow_ops_dropped,omitempty"`
}

// Report is the top-level schema every tool emits.
type Report struct {
	Schema string      `json:"schema"`
	Tool   string      `json:"tool"`
	Runs   []RunReport `json:"runs"`
}

// NewReport starts a report for the named tool.
func NewReport(tool string) *Report {
	return &Report{Schema: Schema, Tool: tool}
}

// OpStats digests a collector into per-op-type stats, skipping idle op types.
func (c *Collector) OpStats() []OpStat {
	if c == nil {
		return nil
	}
	var out []OpStat
	for op := Op(0); op < NumOps; op++ {
		h := c.hist[op]
		if h.Count() == 0 {
			continue
		}
		st := OpStat{
			Op:      op.String(),
			Count:   h.Count(),
			TotalNs: c.totalNs[op].Load(),
			Latency: h.Summary(),
		}
		for l := 0; l < hw.NumLayers; l++ {
			if ns := c.layerNs[op][l].Load(); ns != 0 {
				st.Layers = append(st.Layers, OpLayer{Layer: hw.LayerName(l), Ns: ns})
			}
		}
		out = append(out, st)
	}
	return out
}

// LayersFromTally converts a tally snapshot into named layer stats, skipping
// all-zero layers.
func LayersFromTally(s sim.TallySnapshot) []LayerStat {
	var out []LayerStat
	for i := 0; i < hw.NumLayers && i < len(s); i++ {
		c := s[i]
		if c.IsZero() {
			continue
		}
		out = append(out, LayerStat{
			Layer:             hw.LayerName(i),
			Ns:                c.Ns,
			WaitNs:            c.WaitNs,
			MediaWriteB:       c.MediaWriteB,
			MediaReadB:        c.MediaReadB,
			CallerWriteB:      c.CallerWriteB,
			LineArrivals:      c.LineArrivals,
			LineHits:          c.LineHits,
			XPLineEvicts:      c.XPLineEvicts,
			RMWEvicts:         c.RMWEvicts,
			LLCWritebackLines: c.LLCWritebackLines,
			LLCFlushLines:     c.LLCFlushLines,
		})
	}
	return out
}

// within reports |a-b| ≤ tol·max(|a|,|b|), with exact match required at 0.
func within(a, b int64, tol float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := a
	if b > m {
		m = b
	}
	if m < 0 {
		m = -m
	}
	return float64(d) <= tol*float64(m)
}

// Verify checks the run's internal invariants and returns a description of
// each violation (empty means the report is self-consistent):
//
//   - per-op per-layer virtual ns sums to the op's total within 1%;
//   - summed foreground op time matches ThreadVNs within 1% (when present);
//   - per-layer media/caller write bytes sum to the device's counters (the
//     layer table and the PMem counters are two views of the same events);
//   - XPBuffer hits ≤ arrivals; media write bytes ≥ caller write bytes;
//   - LLC and block-cache hits + misses == probes.
func (r *RunReport) Verify() []string {
	var bad []string
	var fgNs int64
	for _, st := range r.OpStats {
		var sum int64
		for _, l := range st.Layers {
			sum += l.Ns
		}
		if !within(sum, st.TotalNs, 0.01) {
			bad = append(bad, fmt.Sprintf("op %s: layer ns sum %d != total %d", st.Op, sum, st.TotalNs))
		}
		fg := true
		for op := Op(0); op < NumOps; op++ {
			if op.String() == st.Op {
				fg = op.foreground()
			}
		}
		if fg {
			fgNs += st.TotalNs
		}
	}
	if r.ThreadVNs > 0 && len(r.OpStats) > 0 {
		if !within(fgNs, r.ThreadVNs, 0.01) {
			bad = append(bad, fmt.Sprintf("foreground op ns %d != thread busy ns %d", fgNs, r.ThreadVNs))
		}
	}
	if len(r.Layers) > 0 && r.Metrics != nil {
		var media, caller, reads int64
		for _, l := range r.Layers {
			media += l.MediaWriteB
			caller += l.CallerWriteB
			reads += l.MediaReadB
		}
		if dev := r.Metrics.Int(MPMemMediaWriteB); !within(media, dev, 0.01) {
			bad = append(bad, fmt.Sprintf("layer media write bytes %d != device %d", media, dev))
		}
		if dev := r.Metrics.Int(MPMemCallerWriteB); !within(caller, dev, 0.01) {
			bad = append(bad, fmt.Sprintf("layer caller write bytes %d != device %d", caller, dev))
		}
		if dev := r.Metrics.Int(MPMemMediaReadB); !within(reads, dev, 0.01) {
			bad = append(bad, fmt.Sprintf("layer media read bytes %d != device %d", reads, dev))
		}
	}
	if m := r.Metrics; m != nil {
		if _, ok := m.Get(MPMemLineArrivals); ok {
			if m.Int(MPMemLineHits) > m.Int(MPMemLineArrivals) {
				bad = append(bad, "pmem line hits > arrivals")
			}
			// Every caller byte lands in some staged XPLine, each line arrival
			// carries at most one line's worth of payload, and every staged
			// line is eventually written out whole — so media bytes can fall
			// short of caller bytes only by what write combining absorbed:
			// one line per hit.
			xls := sim.DefaultCosts().XPLineSize
			if m.Int(MPMemMediaWriteB)+xls*m.Int(MPMemLineHits) < m.Int(MPMemCallerWriteB) {
				bad = append(bad, "media write bytes < caller write bytes beyond combining allowance")
			}
		}
		if _, ok := m.Get(MLLCProbes); ok {
			if m.Int(MLLCHits)+m.Int(MLLCMisses) != m.Int(MLLCProbes) {
				bad = append(bad, "llc hits+misses != probes")
			}
		}
		if _, ok := m.Get(MBlockCacheProbes); ok {
			if m.Int(MBlockCacheHits)+m.Int(MBlockCacheMisses) != m.Int(MBlockCacheProbes) {
				bad = append(bad, "block cache hits+misses != probes")
			}
			if m.Int(MSSTPointDirect)+m.Int(MBlockCacheAdmitted) > m.Int(MBlockCacheMisses) {
				bad = append(bad, "sst point direct + block cache admitted > block cache misses")
			}
		}
		if _, ok := m.Get(MFilterProbes); ok {
			if m.Int(MFilterNegatives) > m.Int(MFilterProbes) {
				bad = append(bad, "filter negatives > probes")
			}
		}
	}
	bad = append(bad, VerifySlowOps(r.SlowOps)...)
	return bad
}

// Verify checks every run in the report.
func (r *Report) Verify() []string {
	var bad []string
	if r.Schema != Schema {
		bad = append(bad, fmt.Sprintf("schema %q != %q", r.Schema, Schema))
	}
	for i := range r.Runs {
		for _, v := range r.Runs[i].Verify() {
			bad = append(bad, fmt.Sprintf("run %d (%s/%s): %s", i, r.Runs[i].Engine, r.Runs[i].Workload, v))
		}
	}
	return bad
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report as indented JSON to path.
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadReport parses a report from path and checks its schema tag.
func LoadReport(path string) (*Report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r Report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, err
	}
	if r.Schema != Schema {
		return nil, fmt.Errorf("obs: report schema %q, want %q", r.Schema, Schema)
	}
	return &r, nil
}
