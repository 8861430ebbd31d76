// Command crashsweep explores crash schedules against the simulated eADR/ADR
// platform: it numbers every persistence-relevant memory operation a scripted
// workload generates (stores, non-temporal streams, flushes — each carrying
// its fence), re-runs the workload crashing at chosen points, applies the
// persistence-domain rule plus an optional media fault, recovers the engine,
// and holds it to the one crash oracle (DESIGN.md §6). -family picks the
// script: single-key operations on any engine, cross-shard atomic batches, or
// a flow-control stall episode with rejected writes, the last two on the
// sharded router. Every failure prints a reproduce: line that replays the
// identical schedule.
//
// Bounded sweep (the CI shape):
//
//	crashsweep -schedules 12 -faults none,torn,flip
//
// Exhaustive sweep over every crash point (the acceptance run):
//
//	crashsweep -schedules 0
//	crashsweep -family cross-shard -schedules 0 -faults none,torn
//
// Replay one schedule of any family, optionally with its event trace:
//
//	crashsweep -engine cachekv -domain eadr -crash-at 46 -fault flip
//	crashsweep -family stall -domain eadr -crash-at 30 -trace -
//
// A replay whose script ends before event -crash-at prints NOT REACHED and
// exits 1: nothing was crashed, so there is no verdict to print.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"

	"cachekv/internal/faultinject"
	"cachekv/internal/obs"
)

func main() {
	family := flag.String("family", "single-key", "schedule family: "+strings.Join(faultinject.FamilyNames, ", "))
	engines := flag.String("engines", "", "comma-separated engine list or 'all' (default: the family's own engine, or all)")
	engine := flag.String("engine", "", "single engine for -crash-at replay mode (default: the family's own engine, or cachekv)")
	domains := flag.String("domains", "adr,eadr", "persistence domains to sweep")
	domain := flag.String("domain", "", "single domain for -crash-at replay mode")
	ops := flag.Int("ops", 0, "script size: single-key ops (70% put / 15% delete / 15% get), cross-shard batches, stall writes per phase; 0 = the family's canonical 200 / 60 / 3")
	seed := flag.Uint64("seed", 1, "workload seed")
	schedules := flag.Int("schedules", 12, "crash points sampled per engine/domain/fault; 0 = exhaustive")
	scheduleSeed := flag.Uint64("schedule-seed", 7, "seed for bounded-sweep crash-point sampling")
	faults := flag.String("faults", "none", "fault modes: none, torn (256B-torn write), flip (post-crash bit flip)")
	crashAt := flag.Int64("crash-at", 0, "replay a single schedule crashing at this event index (requires -domain)")
	fault := flag.String("fault", "none", "fault mode for -crash-at replay")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "concurrent schedule runs")
	verbose := flag.Bool("v", false, "log per-configuration event totals")
	tracePath := flag.String("trace", "", "replay mode: write the annotated lifecycle event trace as JSONL here ('-' for stdout)")
	reportPath := flag.String("report", "", "write sweep results as a cachekv.obs/v1 JSON report here")
	flag.Parse()

	fam, err := faultinject.NewFamily(*family, *seed, *ops)
	if err != nil {
		fatal(err)
	}
	sweepDefault, replayDefault := "all", "cachekv"
	if fam.Engine != "" { // the script is written for one engine
		sweepDefault, replayDefault = fam.Engine, fam.Engine
	}
	if *engines == "" {
		*engines = sweepDefault
	}
	if *engine == "" {
		*engine = replayDefault
	}
	if *crashAt > 0 {
		os.Exit(replay(fam, *engine, *domain, *crashAt, *fault, *tracePath))
	}

	specs, err := parseEngines(*engines)
	if err != nil {
		fatal(err)
	}
	doms, err := parseList(*domains, faultinject.ParseDomain)
	if err != nil {
		fatal(err)
	}
	flts, err := parseList(*faults, faultinject.ParseFault)
	if err != nil {
		fatal(err)
	}

	cfg := faultinject.SweepConfig{
		Engines:            specs,
		Domains:            doms,
		Families:           []faultinject.Family{fam},
		SchedulesPerConfig: *schedules,
		ScheduleSeed:       *scheduleSeed,
		Faults:             flts,
		Parallel:           *parallel,
	}
	if *verbose {
		cfg.Log = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	stats, err := faultinject.Sweep(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("crashsweep: %s: %d schedules, %d failures\n", fam.Name, stats.Runs, len(stats.Failures))
	if *reportPath != "" {
		if err := writeSweepReport(*reportPath, *engines, stats); err != nil {
			fatal(err)
		}
	}
	for _, r := range stats.Failures {
		fmt.Printf("FAIL {%s}\n", r.Schedule)
		for _, v := range r.Violations {
			fmt.Printf("  %s\n", v)
		}
		fmt.Printf("  reproduce: %s\n", r.Schedule.Reproduce())
	}
	if len(stats.Failures) > 0 {
		os.Exit(1)
	}
}

// writeSweepReport emits the sweep's outcome in the shared report schema: one
// run whose metrics carry schedule/failure counts plus each configuration's
// crash-point-space size, and whose events list one entry per failure with
// its full reproduction tuple.
func writeSweepReport(path, engines string, stats *faultinject.SweepStats) error {
	snap := &obs.Snapshot{Metrics: []obs.Metric{
		{Name: "sweep_schedules", Kind: obs.KindCounter, Int: int64(stats.Runs)},
		{Name: "sweep_failures", Kind: obs.KindCounter, Int: int64(len(stats.Failures))},
	}}
	keys := make([]string, 0, len(stats.EventTotals))
	for k := range stats.EventTotals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		snap.Metrics = append(snap.Metrics, obs.Metric{
			Name: "sweep_events_" + k, Kind: obs.KindCounter, Int: stats.EventTotals[k]})
	}
	run := obs.RunReport{Engine: engines, Workload: "crashsweep", Ops: int64(stats.Runs), Metrics: snap}
	for i, f := range stats.Failures {
		run.Events = append(run.Events, obs.Event{
			Seq: uint64(i + 1), Type: "oracle_violation",
			Attrs: map[string]any{
				"schedule":  f.Schedule.String(),
				"violation": f.Violations[0],
			},
		})
	}
	rep := obs.NewReport("crashsweep")
	rep.Runs = append(rep.Runs, run)
	return rep.WriteFile(path)
}

func replay(fam faultinject.Family, engine, domain string, crashAt int64, fault, tracePath string) int {
	if domain == "" {
		fatal(fmt.Errorf("replay mode needs -domain"))
	}
	spec, ok := faultinject.FindEngine(engine)
	if !ok {
		fatal(fmt.Errorf("unknown engine %q", engine))
	}
	dom, err := faultinject.ParseDomain(domain)
	if err != nil {
		fatal(err)
	}
	flt, err := faultinject.ParseFault(fault)
	if err != nil {
		fatal(err)
	}
	var tr *obs.Trace
	if tracePath != "" {
		tr = obs.NewTrace(obs.DefaultTraceCap)
	}
	r := faultinject.Run(spec, dom, fam, crashAt, flt, tr)
	if tr != nil {
		out := os.Stdout
		if tracePath != "-" {
			f, err := os.Create(tracePath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			out = f
		}
		if err := tr.WriteJSONL(out); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("schedule {%s}: frozen=%v inflight=%d events=%d streamhash=%#x\n",
		r.Schedule, r.Frozen, r.Inflight, r.Events, r.StreamHash)
	if r.RecoveryRefused != nil {
		fmt.Printf("recovery refused (acceptable under fault=flip): %v\n", r.RecoveryRefused)
	}
	for _, v := range r.Violations {
		fmt.Printf("VIOLATION: %s\n", v)
	}
	if r.Failed() {
		return 1
	}
	if !r.Frozen {
		fmt.Printf("NOT REACHED (script numbers %d events)\n", r.Events)
		return 1
	}
	fmt.Println("PASS")
	return 0
}

func parseEngines(list string) ([]faultinject.EngineSpec, error) {
	if list == "all" {
		return faultinject.AllEngines(), nil
	}
	return parseList(list, func(name string) (faultinject.EngineSpec, error) {
		spec, ok := faultinject.FindEngine(name)
		if !ok {
			return spec, fmt.Errorf("unknown engine %q", name)
		}
		return spec, nil
	})
}

// parseList parses a comma-separated list with one item parser.
func parseList[T any](list string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, name := range strings.Split(list, ",") {
		v, err := parse(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "crashsweep:", err)
	os.Exit(1)
}
