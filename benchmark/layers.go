package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"cachekv/internal/hw"
	"cachekv/internal/obs"
)

// layerProbe collects a traced run's per-layer numbers from outside the
// store: (A) deltas of the registry's counters and durations of the lifecycle
// trace's events over the measured window, and (B) the collector's
// [op][layer] virtual-time matrix over the same window. The window closes
// after the settle when the measured phase wrote (its background debt belongs
// to it) and at the end of the measured phase when it only read.
type layerProbe struct {
	begin0   *obs.Snapshot    // registry at measure begin
	win0     *obs.Snapshot    // registry at the open of the current engine's window
	counters map[string]int64 // engine counters, summed over windows (a crash starts a new engine)
	last     *obs.Snapshot    // registry at close
	col0     collectorSnap
	col      collectorSnap // delta at close
	user0    int64
	userB    int64 // user bytes written inside the window
	kinds    [numKinds]kindStats
	closed   bool

	events  []obs.Event
	lastSeq uint64
	gap     bool // the ring dropped events before they were polled

	levelsSeen map[string]bool // LSM levels that held files at any poll
}

type collectorSnap struct {
	count [obs.NumOps]int64
	layer [obs.NumOps][hw.NumLayers]int64
}

func snapCollector(c *obs.Collector) (s collectorSnap) {
	for op := obs.Op(0); op < obs.NumOps; op++ {
		s.count[op] = c.Hist(op).Count()
		for l := 0; l < hw.NumLayers; l++ {
			s.layer[op][l] = c.LayerNs(op, l)
		}
	}
	return s
}

// machineWide reports whether a registry metric belongs to the platform or
// the trace, which outlive a crash, and not to the engine instance.
func machineWide(name string) bool {
	return strings.HasPrefix(name, "pmem_") || strings.HasPrefix(name, "llc_") || strings.HasPrefix(name, "trace_")
}

func (lp *layerProbe) begin(r *run) {
	lp.counters = map[string]int64{}
	lp.levelsSeen = map[string]bool{}
	lp.begin0 = r.db.Registry().Gather()
	lp.win0 = lp.begin0
	lp.col0 = snapCollector(r.db.Collector())
	lp.lastSeq = r.db.Trace().Seq()
	lp.user0 = r.userBytes()
}

func (r *run) userBytes() (n int64) {
	for _, c := range r.clients {
		n += c.userBytes
	}
	return n
}

// poll runs at every segment boundary: it drains the lifecycle ring before it
// can wrap, and notes which LSM levels hold files (L0 is empty again by the
// time a run has settled).
func (lp *layerProbe) poll(r *run) {
	lp.pollTrace(r)
	lp.noteLevels(r.db.Registry().Gather())
}

func (lp *layerProbe) noteLevels(snap *obs.Snapshot) {
	for _, m := range snap.Metrics {
		if strings.HasPrefix(m.Name, "lsm_l") && strings.HasSuffix(m.Name, "_files") && m.Float > 0 {
			lp.levelsSeen[m.Name] = true
		}
	}
}

func (lp *layerProbe) pollTrace(r *run) {
	for _, e := range r.db.Trace().Events() {
		if e.Seq <= lp.lastSeq {
			continue
		}
		if e.Seq != lp.lastSeq+1 {
			lp.gap = true
		}
		lp.events = append(lp.events, e)
		lp.lastSeq = e.Seq
	}
}

// closeWindow books the current engine's counter deltas; a crash discards the
// engine and its counters with it.
func (lp *layerProbe) closeWindow(r *run) {
	lp.pollTrace(r)
	lp.last = r.db.Registry().Gather()
	for _, m := range lp.last.Metrics {
		if m.Kind == obs.KindCounter && !machineWide(m.Name) {
			lp.counters[m.Name] += m.Int - lp.win0.Int(m.Name)
		}
	}
}

func (lp *layerProbe) openWindow(r *run) {
	lp.pollTrace(r)
	lp.win0 = r.db.Registry().Gather()
}

// end closes the measured window for good.
func (lp *layerProbe) end(r *run) {
	if lp.closed {
		return
	}
	lp.closed = true
	lp.closeWindow(r)
	for _, m := range lp.last.Metrics {
		if m.Kind == obs.KindCounter && machineWide(m.Name) {
			lp.counters[m.Name] = m.Int - lp.begin0.Int(m.Name)
		}
	}
	now := snapCollector(r.db.Collector())
	for op := range now.count {
		lp.col.count[op] = now.count[op] - lp.col0.count[op]
		for l := range now.layer[op] {
			lp.col.layer[op][l] = now.layer[op][l] - lp.col0.layer[op][l]
		}
	}
	lp.userB = r.userBytes() - lp.user0
	for _, c := range r.clients {
		for k := range c.kinds {
			lp.kinds[k].n += c.kinds[k].n
			lp.kinds[k].vns += c.kinds[k].vns
		}
	}
	// The store is quiet here, so two views of the same device counters must
	// agree exactly.
	m := r.db.Metrics()
	if w, rd := lp.last.Int(obs.MPMemMediaWriteB), lp.last.Int(obs.MPMemMediaReadB); w != m.MediaWriteBytes || rd != m.MediaReadBytes {
		r.violate("registry says %d/%d media bytes written/read, DB.Metrics says %d/%d", w, rd, m.MediaWriteBytes, m.MediaReadBytes)
	}
}

func (r *run) violate(format string, args ...any) {
	r.res.failures = append(r.res.failures, "conservation: "+fmt.Sprintf(format, args...))
}

func attrInt(e obs.Event, key string) int64 {
	switch v := e.Attrs[key].(type) {
	case int:
		return int64(v)
	case int64:
		return v
	case uint64:
		return int64(v)
	}
	return 0
}

// eventDurations pairs *_start with *_end events and sums their virtual
// durations per kind.
func (lp *layerProbe) eventDurations() (flushNs, spillNs, compactNs int64) {
	type job struct {
		kind        byte
		shard, slot int64
	}
	open := map[job]int64{}
	closeJob := func(j job, at int64) int64 {
		start, ok := open[j]
		if !ok {
			return 0 // started before the window
		}
		delete(open, j)
		return at - start
	}
	for _, e := range lp.events {
		switch e.Type {
		case "flush_start":
			open[job{'f', attrInt(e, "shard"), attrInt(e, "slot")}] = e.VNs
		case "flush_end":
			flushNs += closeJob(job{'f', attrInt(e, "shard"), attrInt(e, "slot")}, e.VNs)
		case "spill_start":
			open[job{'s', attrInt(e, "shard"), 0}] = e.VNs
		case "spill_end":
			spillNs += closeJob(job{'s', attrInt(e, "shard"), 0}, e.VNs)
		case "compact_end":
			compactNs += attrInt(e, "ns")
		}
	}
	return
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// obsOp is the collector's name for each kind of call.
var obsOp = [numKinds]obs.Op{kPut: obs.OpPut, kGet: obs.OpGet, kDelete: obs.OpDelete, kScan: obs.OpScan, kApply: obs.OpBatch}

// report fills the per-layer metrics and runs the conservation checks.
func (lp *layerProbe) report(r *run, reads, writes []int64) {
	res := r.res
	set := func(name string, v float64) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.metrics[name] = v
	}
	ops := float64(r.measuredOps)
	cnt := func(name string) float64 { return float64(lp.counters[name]) }
	readCalls := float64(lp.kinds[kGet].n + lp.kinds[kScan].n)

	// cachekv: the benchmark's own spans around the public calls.
	var spans int
	var onOps int64
	var onNs, offNs []float64
	host := map[opKind][]int64{}
	for _, c := range r.clients {
		spans += len(c.spans)
		onOps += c.onOps
		onNs, offNs = append(onNs, c.onNs...), append(offNs, c.offNs...)
		for _, s := range c.spans {
			host[s.kind] = append(host[s.kind], s.h1-s.h0)
		}
	}
	for _, kind := range spanKinds {
		h, name := host[kind], kindNames[kind]
		slices.Sort(h)
		set("cachekv."+name+".host_ns_p50", p50(h))
		set("cachekv."+name+".host_ns_p99", p99(h))
		res.samples["cachekv."+name+".host_ns_p50"] = len(h)
		res.samples["cachekv."+name+".host_ns_p99"] = len(h)
	}
	// Blocks with and without spans alternate, so their medians see the same
	// store; a median, because a block that waits out a stall is an outlier.
	set("cachekv.trace_overhead_frac", ratio(median(onNs), median(offNs))-1)
	if int64(spans) != onOps {
		r.violate("%d spans recorded for %d ops issued with tracing on", spans, onOps)
	}

	// core.
	flushNs, spillNs, compactNs := lp.eventDurations()
	set("core.flushes", cnt("engine_flushes"))
	set("core.spills", cnt("engine_spills"))
	set("core.read_syncs_per_get", ratio(cnt("engine_read_syncs"), cnt("engine_gets")))
	set("core.bgflush_vms", float64(flushNs)/1e6)
	set("core.spill_vms", float64(spillNs)/1e6)
	set("core.flow_slowdown_entries", cnt("flow_slowdown_entries"))
	set("core.flow_stop_entries", cnt("flow_stop_entries"))
	set("core.transient_get_misses", float64(r.transient))
	var stalled int64
	limit := 20 * writes[len(writes)/2]
	for i := len(writes) - 1; i >= 0 && writes[i] > limit; i-- {
		stalled += writes[i]
	}
	set("core.stall_frac", ratio(float64(stalled), float64(r.vMax)))
	set("core.write_vlat_p999_ns", p999(writes))
	set("core.write_vlat_max_ns", float64(writes[len(writes)-1]))
	res.samples["core.write_vlat_p999_ns"] = len(writes)
	set("core.recovery_host_ms", ratio(float64(r.recoveryNs)/1e6, float64(r.recoveries)))
	set("core.recovery_vms", ratio(float64(r.recoveryVNs)/1e6, float64(r.recoveries)))

	// (B) attribution: mean virtual ns per call, by the cell it was spent in.
	cellLayer := map[string]int{}
	for l := 0; l < hw.NumLayers; l++ {
		cellLayer[hw.LayerName(l)] = l
	}
	for _, kind := range vnsKinds {
		op := obsOp[kind]
		for _, cell := range vnsCells {
			set("vns."+kindNames[kind]+"."+cell, ratio(float64(lp.col.layer[op][cellLayer[cell]]), float64(lp.col.count[op])))
		}
	}
	for kind, name := range kindNames {
		mine, op := lp.kinds[kind], obsOp[kind]
		if lp.col.count[op] != mine.n {
			r.violate("the collector recorded %d %s spans for %d calls issued", lp.col.count[op], name, mine.n)
		}
		var cells int64
		for _, cell := range vnsCells {
			cells += lp.col.layer[op][cellLayer[cell]]
		}
		if d := math.Abs(float64(cells - mine.vns)); d > 0.01*float64(mine.vns) {
			r.violate("%s: the attribution cells sum to %d virtual ns, the calls took %d", name, cells, mine.vns)
		}
	}

	// lsm.
	set("lsm.compactions", cnt("compact_jobs"))
	set("lsm.compact_vms", float64(compactNs)/1e6)
	set("lsm.compact_b_in_per_user_b", ratio(cnt("compact_bytes_in"), float64(lp.userB)))
	set("lsm.compact_b_out_per_user_b", ratio(cnt("compact_bytes_out"), float64(lp.userB)))
	set("lsm.l0_files_end", lp.last.Float("lsm_l0_files"))
	set("lsm.debt_b_end", lp.last.Float("compact_debt_bytes"))
	var treeBytes float64
	for _, m := range lp.last.Metrics {
		if strings.HasPrefix(m.Name, "lsm_l") && strings.HasSuffix(m.Name, "_bytes") {
			treeBytes += m.Float
		}
	}
	lp.noteLevels(lp.last)
	var live float64
	for _, v := range r.ver {
		if v != 0 {
			live += keyLen + valueLen
		}
	}
	set("lsm.levels_used", float64(len(lp.levelsSeen)))
	set("lsm.space_amp", ratio(treeBytes, live))

	// blockcache, memfilter: per read call the clients issued.
	hits, misses := cnt(obs.MBlockCacheHits), cnt(obs.MBlockCacheMisses)
	set("blockcache.hit_ratio", ratio(hits, hits+misses))
	set("blockcache.probes_per_get", ratio(hits+misses, readCalls))
	set("memfilter.negative_ratio", ratio(cnt(obs.MFilterNegatives), cnt(obs.MFilterProbes)))
	set("memfilter.probes_per_get", ratio(cnt(obs.MFilterProbes), readCalls))

	// hw.pmem, hw.cache.
	set("pmem.write_hit_ratio", ratio(cnt(obs.MPMemLineHits), cnt(obs.MPMemLineArrivals)))
	set("pmem.rmw_per_kop", cnt(obs.MPMemRMWEvicts)/ops*1e3)
	set("pmem.media_write_b_per_op", cnt(obs.MPMemMediaWriteB)/ops)
	set("pmem.media_read_b_per_op", cnt(obs.MPMemMediaReadB)/ops)
	set("pmem.xpline_evicts_per_op", cnt(obs.MPMemXPLineEvicts)/ops)
	set("llc.hit_ratio", ratio(cnt(obs.MLLCHits), cnt(obs.MLLCProbes)))
	set("llc.writebacks_per_op", cnt(obs.MLLCWritebacks)/ops)
	set("llc.evictions_per_op", cnt(obs.MLLCEvictions)/ops)

	set("obs.trace_dropped", cnt(obs.MTraceDropped))
	if lp.gap {
		res.notes = append(res.notes, "trace window incomplete: the lifecycle ring wrapped between polls, so event-derived durations (core.bgflush_vms, core.spill_vms, lsm.compact_vms) undercount")
	}

	// client.
	set("client.host_kops", ops/r.windowSec/1e3)
	set("client.host_cpu_us_per_op", float64(r.cpu1-r.cpu0)/1e3/ops)
	set("client.host_b_per_op", float64(r.ms1.TotalAlloc-r.ms0.TotalAlloc)/ops)
	set("client.gc_cycles", float64(r.ms1.NumGC-r.ms0.NumGC))
	set("client.gc_pause_ms", float64(r.ms1.PauseTotalNs-r.ms0.PauseTotalNs)/1e6)
	set("client.gen_ns_per_op", r.genNsPerOp)

	if err := runProbes(r.cfg, set); err != nil {
		res.failures = append(res.failures, fmt.Sprintf("probe: %v", err))
	}
	lp.writeSpans(r)
}

// writeSpans writes the run's spans as JSONL, parents first: one line per
// phase, then one per traced call with the measured phase as its parent.
func (lp *layerProbe) writeSpans(r *run) {
	if r.cfg.outDir == "" {
		return
	}
	path := filepath.Join(r.cfg.outDir, "spans-"+r.cfg.workload+".jsonl")
	if err := writeSpanFile(path, r); err != nil {
		r.res.notes = append(r.res.notes, fmt.Sprintf("spans not written: %v", err))
		return
	}
	r.res.notes = append(r.res.notes, "spans written to "+path)
}

func writeSpanFile(path string, r *run) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriterSize(f, 1<<20)
	parent := 0
	for i, p := range r.phases {
		if p.name == "measured" {
			parent = i + 1
		}
		fmt.Fprintf(w, `{"id":%d,"name":%q,"host_start_ns":%d,"host_end_ns":%d}`+"\n", i+1, p.name, p.h0, p.h1)
	}
	var line []byte
	for _, c := range r.clients {
		for _, s := range c.spans {
			line = fmt.Appendf(line[:0], `{"parent":%d,"name":%q,"worker":%d,"host_start_ns":%d,"host_end_ns":%d,"virt_start_ns":%d,"virt_end_ns":%d}`+"\n",
				parent, kindNames[s.kind], s.worker, s.h0, s.h1, s.v0, s.v1)
			if _, err := w.Write(line); err != nil {
				return err
			}
		}
	}
	return w.Flush()
}

// genCost replays a measured body against clients that skip the store, and
// books what is left: drawing the op, encoding its key and value.
func (r *run) genCost(total int, body func(c *client, n int)) {
	if !r.cfg.trace {
		return
	}
	share := max(total/len(r.clients), 1)
	start := time.Now()
	var n int64
	for _, c := range r.clients {
		dry := &client{r: r, id: c.id, dry: true}
		body(dry, share)
		n += dry.attempted
	}
	r.genNsPerOp = float64(time.Since(start)) / float64(max(n, 1))
}
