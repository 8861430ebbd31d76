package bench

import (
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// BuildRegistry assembles the canonical metrics registry for a bench run:
// platform hardware counters, whatever surfaces the engine exposes, and the
// trace's emission counters.
func BuildRegistry(m *hw.Machine, db kvstore.DB, tr *obs.Trace) *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterMachine(r, m)
	obs.RegisterKV(r, db)
	obs.RegisterTrace(r, tr)
	return r
}

// BuildRunReport digests one phase's Result plus the runner's obs state into
// the shared report schema. Layer stats come from the machine tally (empty
// when the machine was built without Obs); the trace's retained events are
// left out, since a long run's tail is rarely wanted in every report.
func BuildRunReport(res Result, r *Runner, tr *obs.Trace) obs.RunReport {
	run := obs.RunReport{
		Engine:     res.Engine,
		Workload:   res.Name,
		Ops:        res.Ops,
		Threads:    res.Threads,
		ElapsedVNs: res.ElapsedNs,
		ThreadVNs:  res.ThreadVNs,
		KopsPerSec: res.KopsPerSec,
		OpStats:    r.Col.OpStats(),
	}
	if t := r.M.ObsTally(); t != nil {
		run.Layers = obs.LayersFromTally(t.Snapshot())
	}
	run.Metrics = BuildRegistry(r.M, r.DB, tr).Gather()
	run.SlowOps = r.Col.SlowOps()
	run.SlowOpsDropped = r.Col.SlowOpsDropped()
	return run
}
