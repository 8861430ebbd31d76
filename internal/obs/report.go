package obs

import (
	"fmt"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
)

// Canonical metric names shared by every registry — the public DB's, the
// bench harness's and cachekv-cli's. RunReport.Verify's invariants are
// phrased over these names.
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

// OpStat is one op type's count, total virtual time and per-layer
// attribution.
type OpStat struct {
	Op      string
	Count   int64
	TotalNs int64
	Layers  []OpLayer
}

// LayerStat is one attribution layer's machine-wide PMem byte totals.
type LayerStat struct {
	Layer        string
	MediaWriteB  int64
	MediaReadB   int64
	CallerWriteB int64
}

// RunReport is what RunReport.Verify checks of one run: the clients' busy
// time, per-op-type attribution, machine-wide per-layer byte totals, the
// metrics snapshot and the slow-op dossiers. It is built in memory and never
// written out; the ledger's JSON (benchmark/) is the only report format.
type RunReport struct {
	ThreadVNs int64
	OpStats   []OpStat
	Layers    []LayerStat
	Metrics   *Snapshot
	SlowOps   []Dossier
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
			Layer:        hw.LayerName(i),
			MediaWriteB:  c.MediaWriteB,
			MediaReadB:   c.MediaReadB,
			CallerWriteB: c.CallerWriteB,
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
