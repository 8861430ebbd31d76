package bench

import (
	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// BuildRegistry assembles the canonical metrics registry for a bench run:
// platform hardware counters, a CacheKV-family store's own (core.Store), and
// the trace's emission counters.
func BuildRegistry(m *hw.Machine, db kvstore.DB, tr *obs.Trace) *obs.Registry {
	r := obs.NewRegistry()
	obs.RegisterMachine(r, m)
	if st, ok := db.(core.Store); ok {
		st.RegisterObs(r)
	}
	obs.RegisterTrace(r, tr)
	return r
}

// BuildRunReport digests one phase's Result plus the runner's obs state into
// what obs.RunReport.Verify checks. Layer stats come from the machine tally
// (empty when the machine was built without Obs).
func BuildRunReport(res Result, r *Runner, tr *obs.Trace) obs.RunReport {
	run := obs.RunReport{
		ThreadVNs: res.ThreadVNs,
		OpStats:   r.Col.OpStats(),
		Metrics:   BuildRegistry(r.M, r.DB, tr).Gather(),
		SlowOps:   r.Col.SlowOps(),
	}
	if t := r.M.ObsTally(); t != nil {
		run.Layers = obs.LayersFromTally(t.Snapshot())
	}
	return run
}
