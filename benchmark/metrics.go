package main

import "encoding/json"

// metricDef is one catalogue entry. The catalogue is the single source of
// the names, units, directions and bounds: BENCHMARK.json is printed from it
// (-manifest) and a test holds the committed file to it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end only
}

const (
	higher = "higher"
	lower  = "lower"
)

// endToEnd is what a user of the store (virtual currency) or of the
// simulator (host currency) sees. Every workload reports every one.
var endToEnd = []metricDef{
	{Name: "vkops", Unit: "kops/vs", Better: higher, Bound: 0.10},
	{Name: "read_vlat_p50_ns", Unit: "vns", Better: lower, Bound: 0.10},
	{Name: "read_vlat_tail_ns", Unit: "vns", Better: lower, Bound: 0.25},
	{Name: "write_vlat_p50_ns", Unit: "vns", Better: lower, Bound: 0.10},
	{Name: "write_vlat_tail_ns", Unit: "vns", Better: lower, Bound: 0.25},
	{Name: "media_write_amp", Unit: "ratio", Better: lower, Bound: 0.25},
	{Name: "host_allocs_per_op", Unit: "count", Better: lower, Bound: 0.10},
	{Name: "host_peak_rss_mb", Unit: "MiB", Better: lower, Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25},
}

// attribution cells of the [op][layer] matrix that a foreground op can spend
// virtual time in.
var vnsCells = []string{"wal", "lock", "index", "append", "flush", "other", "sst", "client", "direct"}
var vnsKinds = []opKind{kPut, kGet, kScan}

// calls whose host time the traced report gives percentiles of.
var spanKinds = []opKind{kPut, kGet, kScan, kApply}

var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	// cachekv: host time of the public calls, from the benchmark's own spans.
	for _, kind := range spanKinds {
		add("ns", lower, "cachekv."+kindNames[kind]+".host_ns_p50", "cachekv."+kindNames[kind]+".host_ns_p99")
	}
	add("ratio", lower, "cachekv.trace_overhead_frac")

	add("count", lower, "core.flushes", "core.spills")
	add("ratio", lower, "core.read_syncs_per_get")
	add("vms", lower, "core.bgflush_vms", "core.spill_vms")
	add("count", lower, "core.flow_slowdown_entries", "core.flow_stop_entries")
	add("count", lower, "core.transient_get_misses")
	add("ratio", lower, "core.stall_frac")
	add("vns", lower, "core.write_vlat_p999_ns", "core.write_vlat_max_ns")
	add("ms", lower, "core.recovery_host_ms")
	add("vms", lower, "core.recovery_vms")

	for _, kind := range vnsKinds {
		for _, cell := range vnsCells {
			add("vns", lower, "vns."+kindNames[kind]+"."+cell)
		}
	}

	add("count", lower, "lsm.compactions")
	add("vms", lower, "lsm.compact_vms")
	add("ratio", lower, "lsm.compact_b_in_per_user_b", "lsm.compact_b_out_per_user_b")
	add("count", lower, "lsm.l0_files_end")
	add("B", lower, "lsm.debt_b_end")
	add("count", lower, "lsm.levels_used")
	add("ratio", lower, "lsm.space_amp")

	add("ns", lower, "sstable.add.host_ns", "sstable.get_cached.host_ns")
	add("vns", lower, "sstable.get_cached.vns")
	add("count", lower, "sstable.get_cached.allocs")
	add("ns", lower, "sstable.get_uncached.host_ns")
	add("vns", lower, "sstable.get_uncached.vns")
	add("count", lower, "sstable.get_uncached.allocs")
	add("ns", lower, "sstable.iter_next.host_ns")

	add("ns", lower, "block.add.host_ns", "block.seek.host_ns")
	add("count", lower, "block.seek.allocs")
	add("ns", lower, "bloom.build_per_key.host_ns", "bloom.may_contain.host_ns")

	add("ratio", higher, "blockcache.hit_ratio")
	add("ratio", lower, "blockcache.probes_per_get")
	add("ns", lower, "blockcache.get_hit.host_ns", "blockcache.put.host_ns")

	add("ratio", higher, "memfilter.negative_ratio")
	add("ratio", lower, "memfilter.probes_per_get")
	add("ns", lower, "memfilter.may_contain.host_ns", "memfilter.add.host_ns")

	add("ns", lower, "skiplist.insert.host_ns")
	add("count", lower, "skiplist.insert.allocs")
	add("ns", lower, "skiplist.get.host_ns", "skiplist.next.host_ns", "arena.alloc.host_ns")

	add("ns", lower, "pmemfs.append4k.host_ns")
	add("vns", lower, "pmemfs.append4k.vns")
	add("ns", lower, "pmemfs.readat4k.host_ns")
	add("vns", lower, "pmemfs.readat4k.vns")

	add("ns", lower, "wal.append100.host_ns")
	add("vns", lower, "wal.append100.vns")
	add("count", lower, "wal.append100.allocs")

	add("ratio", higher, "pmem.write_hit_ratio")
	add("count", lower, "pmem.rmw_per_kop")
	add("B", lower, "pmem.media_write_b_per_op", "pmem.media_read_b_per_op")
	add("count", lower, "pmem.xpline_evicts_per_op")
	add("ns", lower, "pmem.write_seq64.host_ns")
	add("vns", lower, "pmem.write_seq64.vns", "pmem.write_rand64.vns")
	add("ns", lower, "pmem.read256.host_ns")
	add("vns", lower, "pmem.read256.vns")

	add("ratio", higher, "llc.hit_ratio")
	add("count", lower, "llc.writebacks_per_op", "llc.evictions_per_op")
	for _, p := range []string{"llc.write64_hit", "llc.read64_hit", "llc.read64_miss", "llc.ntwrite4k"} {
		add("ns", lower, p+".host_ns")
		add("vns", lower, p+".vns")
	}

	add("ns", lower, "sim.clock_advance.host_ns", "sim.vmutex_pair.host_ns")

	add("count", lower, "obs.trace_dropped")
	add("ns", lower, "obs.span_pair.host_ns")
	add("ratio", lower, "obs.on_vs_off.host_frac")
	add("ns", lower, "histogram.record.host_ns", "util.hash64.host_ns", "util.ikey_encode.host_ns")

	add("kops/vs", higher, "baseline.novelsm.fill_vkops")
	add("x", higher, "fidelity.fill_speedup_x")
	add("ratio", lower, "fidelity.fill_speedup_err")

	add("kops/s", higher, "client.host_kops")
	add("us", lower, "client.host_cpu_us_per_op")
	add("ns", lower, "client.gen_ns_per_op")
	add("B", lower, "client.host_b_per_op")
	add("count", lower, "client.gc_cycles")
	add("ms", lower, "client.gc_pause_ms")
	return out
}

// runSeconds is the measured-phase length the op counts in workloads.go were
// calibrated for on the reference box; --seconds scales them linearly.
const runSeconds = 6

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layerDef struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []layerDef  `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, wl{w.name, w.why})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, layerDef{d.Name, d.Unit, d.Better})
	}
	b, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
