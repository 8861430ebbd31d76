// Command ycsb runs the YCSB core workloads (Load, A, B, C, D, F — the set
// of the paper's Exp#4) against any engine on the simulated platform.
//
// Usage:
//
//	ycsb -engine cachekv -workloads load,a,b,c,d,f -records 1000000 -ops 1000000
//
// With -report the run emits the shared cachekv.obs/v1 telemetry schema
// (per-op-type latency histograms with per-layer virtual-time attribution,
// machine-wide per-layer hardware totals, and the metrics snapshot); -check
// additionally verifies the report's internal invariants and exits nonzero on
// any violation.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cachekv/internal/bench"
	"cachekv/internal/engines"
	"cachekv/internal/obs"
)

func main() {
	engine := flag.String("engine", "cachekv", "engine name (see cachekv-bench -h)")
	workloads := flag.String("workloads", "load,a,b,c,d,f", "comma-separated YCSB workloads")
	records := flag.Int64("records", 100000, "records loaded before each workload")
	ops := flag.Int64("ops", 100000, "operations per workload")
	threads := flag.Int("threads", 1, "user threads")
	valueSize := flag.Int("value-size", 64, "value size (paper uses 64 B)")
	reportPath := flag.String("report", "", "write a cachekv.obs/v1 JSON report here (enables attribution)")
	check := flag.Bool("check", false, "verify report invariants; exit 1 on violation (implies attribution)")
	shards := flag.Int("shards", 0, "CacheKV engine shards (0 or 1 = classic single engine)")
	compactionWorkers := flag.Int("compaction-workers", 0, "CacheKV background compaction workers (0 = default (1))")
	slowopNs := flag.Int64("slowop-ns", 0, "arm slow-op dossier capture with this static threshold (virtual ns; 0 = off); dossiers land in the report's slow_ops")
	flag.Parse()
	withObs := *reportPath != "" || *check

	kind, err := engines.Parse(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	specs := map[string]bench.YCSBSpec{
		"load": bench.YCSBLoad, "a": bench.YCSBA, "b": bench.YCSBB,
		"c": bench.YCSBC, "d": bench.YCSBD, "f": bench.YCSBF,
	}

	report := obs.NewReport("ycsb")
	for _, name := range strings.Split(*workloads, ",") {
		spec, ok := specs[strings.TrimSpace(strings.ToLower(name))]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown workload %q\n", name)
			os.Exit(1)
		}
		// Fresh platform per workload, as YCSB runs each against a clean DB.
		var cfg bench.EngineConfig
		cfg.DataBytes = uint64(*records*2) * uint64(*valueSize+40)
		cfg.Shards = *shards
		cfg.CompactionWorkers = *compactionWorkers
		if *threads > 24 {
			cfg.Cores = *threads
		}
		var tr *obs.Trace
		if withObs {
			cfg.Obs = true
			tr = obs.NewTrace(obs.DefaultTraceCap)
			cfg.Trace = tr
		}
		m := cfg.NewMachine()
		th := m.NewThread(0)
		db, err := cfg.Open(kind, m, th)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		r := bench.NewRunner(m, db)
		if withObs {
			r.Col = obs.NewCollector()
			if *slowopNs > 0 {
				r.Col.EnableSlowOps(obs.SlowOpPolicy{StaticNs: *slowopNs}, tr)
			}
		}
		res, err := bench.RunYCSB(r, spec, *records, *ops, *threads, *valueSize)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ycsb-%s: %v\n", spec.Name, err)
			os.Exit(1)
		}
		fmt.Printf("YCSB-%-4s [%s] : %10.1f Kops/s  (%d ops, %d threads)\n",
			spec.Name, res.Engine, res.KopsPerSec, res.Ops, res.Threads)
		if withObs {
			// Quiesce the XPBuffer so the per-layer media-byte totals are
			// complete before the metrics snapshot is taken.
			if err := r.Settle(th); err != nil {
				fmt.Fprintf(os.Stderr, "ycsb-%s: settle: %v\n", spec.Name, err)
				os.Exit(1)
			}
			run := bench.BuildRunReport(res, r, tr)
			printAttribution(run)
			report.Runs = append(report.Runs, run)
		}
		db.Close(th)
	}
	if *reportPath != "" {
		if err := report.WriteFile(*reportPath); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if *check {
		if bad := report.Verify(); len(bad) > 0 {
			for _, v := range bad {
				fmt.Fprintf(os.Stderr, "ycsb: invariant violated: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Printf("ycsb: report invariants hold (%d runs)\n", len(report.Runs))
	}
}

// printAttribution renders one run's per-op-type layer breakdown.
func printAttribution(run obs.RunReport) {
	for _, st := range run.OpStats {
		fmt.Printf("  %-8s : %8d ops, mean %8.0f ns, p99 %8.0f ns\n",
			st.Op, st.Count, st.Latency.MeanNs, st.Latency.P99Ns)
		for _, l := range st.Layers {
			fmt.Printf("    %-10s %12d ns (%5.1f%%)\n",
				l.Layer, l.Ns, 100*float64(l.Ns)/float64(st.TotalNs))
		}
	}
}
