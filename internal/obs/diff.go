package obs

import (
	"fmt"
	"io"
	"sort"
)

// DiffTolerances are the per-metric relative tolerances obsdiff applies. A
// zero field takes its default. All are fractions: 0.15 means a 15% change in
// the regressing direction (latency/dwell up, throughput down) fails.
type DiffTolerances struct {
	NsPerOp    float64 // mean virtual ns per op, per op type (default 0.15)
	Tail       float64 // p99 / p99.9 latency (default 0.25)
	Layer      float64 // per-(op, layer) ns/op attribution (default 0.35)
	Dwell      float64 // flow-control stall dwell fraction (default 0.15)
	Throughput float64 // Kops/s (default 0.15)
}

func (t DiffTolerances) withDefaults() DiffTolerances {
	if t.NsPerOp <= 0 {
		t.NsPerOp = 0.15
	}
	if t.Tail <= 0 {
		t.Tail = 0.25
	}
	if t.Layer <= 0 {
		t.Layer = 0.35
	}
	if t.Dwell <= 0 {
		t.Dwell = 0.15
	}
	if t.Throughput <= 0 {
		t.Throughput = 0.15
	}
	return t
}

// Delta is one compared metric across the two reports.
type Delta struct {
	Run       string  `json:"run"`
	Metric    string  `json:"metric"`
	Old       float64 `json:"old"`
	New       float64 `json:"new"`
	Pct       float64 `json:"pct"` // signed relative change vs old
	Regressed bool    `json:"regressed,omitempty"`
}

// DiffResult is a structural comparison of two report run sets.
type DiffResult struct {
	Deltas  []Delta  `json:"deltas"`
	Missing []string `json:"missing,omitempty"` // run keys present on one side only
}

// Regressions returns the deltas that exceeded tolerance.
func (d *DiffResult) Regressions() []Delta {
	var out []Delta
	for _, dl := range d.Deltas {
		if dl.Regressed {
			out = append(out, dl)
		}
	}
	return out
}

// runKeys labels runs by engine/workload, disambiguating duplicates in
// encounter order so two reports from the same tool pair up positionally.
func runKeys(runs []RunReport) map[string]*RunReport {
	out := make(map[string]*RunReport, len(runs))
	seen := make(map[string]int)
	for i := range runs {
		key := runs[i].Engine + "/" + runs[i].Workload
		if n := seen[key]; n > 0 {
			key = fmt.Sprintf("%s#%d", key, n)
		}
		seen[runs[i].Engine+"/"+runs[i].Workload]++
		out[key] = &runs[i]
	}
	return out
}

func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		if newV == 0 {
			return 0
		}
		return 1
	}
	return (newV - oldV) / oldV
}

// dwellFrac returns the run's flow-control stall dwell (slowdown + stop) as a
// fraction of elapsed virtual time, and whether the metrics exist.
func dwellFrac(r *RunReport) (float64, bool) {
	if r.Metrics == nil || r.ElapsedVNs <= 0 {
		return 0, false
	}
	slow, okS := r.Metrics.Get("flow_dwell_slowdown_ns")
	stop, okT := r.Metrics.Get("flow_dwell_stop_ns")
	if !okS && !okT {
		return 0, false
	}
	var total float64
	if okS {
		total += float64(slow.Int) + slow.Float
	}
	if okT {
		total += float64(stop.Int) + stop.Float
	}
	return total / float64(r.ElapsedVNs), true
}

// DiffRuns structurally compares two run sets: throughput, per-op mean and
// tail latency, per-(op, layer) attribution, and flow-control stall dwell.
// Latency, layer, and dwell metrics regress upward; throughput regresses
// downward. Metrics absent on either side are skipped (a report from before a
// field existed cannot fail the gate on it).
func DiffRuns(oldRuns, newRuns []RunReport, tol DiffTolerances) DiffResult {
	tol = tol.withDefaults()
	var res DiffResult
	om, nm := runKeys(oldRuns), runKeys(newRuns)
	keys := make([]string, 0, len(om))
	for k := range om {
		if _, ok := nm[k]; ok {
			keys = append(keys, k)
		} else {
			res.Missing = append(res.Missing, k+" (old only)")
		}
	}
	for k := range nm {
		if _, ok := om[k]; !ok {
			res.Missing = append(res.Missing, k+" (new only)")
		}
	}
	sort.Strings(keys)
	sort.Strings(res.Missing)

	add := func(run, metric string, oldV, newV float64, regressed bool) {
		res.Deltas = append(res.Deltas, Delta{
			Run: run, Metric: metric, Old: oldV, New: newV, Pct: pct(oldV, newV), Regressed: regressed,
		})
	}
	for _, k := range keys {
		o, n := om[k], nm[k]
		if o.KopsPerSec > 0 && n.KopsPerSec > 0 {
			add(k, "kops_per_sec", o.KopsPerSec, n.KopsPerSec,
				n.KopsPerSec < o.KopsPerSec*(1-tol.Throughput))
		}
		oOps := make(map[string]*OpStat, len(o.OpStats))
		for i := range o.OpStats {
			oOps[o.OpStats[i].Op] = &o.OpStats[i]
		}
		for i := range n.OpStats {
			ns := &n.OpStats[i]
			os, ok := oOps[ns.Op]
			if !ok || os.Count == 0 || ns.Count == 0 {
				continue
			}
			oMean := float64(os.TotalNs) / float64(os.Count)
			nMean := float64(ns.TotalNs) / float64(ns.Count)
			add(k, "op/"+ns.Op+"/mean_ns", oMean, nMean, nMean > oMean*(1+tol.NsPerOp))
			if os.Latency.P99Ns > 0 && ns.Latency.P99Ns > 0 {
				add(k, "op/"+ns.Op+"/p99_ns", os.Latency.P99Ns, ns.Latency.P99Ns,
					ns.Latency.P99Ns > os.Latency.P99Ns*(1+tol.Tail))
			}
			if os.Latency.P999Ns > 0 && ns.Latency.P999Ns > 0 {
				add(k, "op/"+ns.Op+"/p999_ns", os.Latency.P999Ns, ns.Latency.P999Ns,
					ns.Latency.P999Ns > os.Latency.P999Ns*(1+tol.Tail))
			}
			oLayers := make(map[string]int64, len(os.Layers))
			for _, l := range os.Layers {
				oLayers[l.Layer] = l.Ns
			}
			for _, l := range ns.Layers {
				oNs, ok := oLayers[l.Layer]
				if !ok {
					continue
				}
				oPer := float64(oNs) / float64(os.Count)
				nPer := float64(l.Ns) / float64(ns.Count)
				// A 50 ns/op absolute slack keeps tiny layers from tripping the
				// relative gate on noise-scale shifts.
				add(k, "op/"+ns.Op+"/layer/"+l.Layer+"_ns", oPer, nPer,
					nPer > oPer*(1+tol.Layer)+50)
			}
		}
		if oFrac, ok := dwellFrac(o); ok {
			if nFrac, ok2 := dwellFrac(n); ok2 {
				// 0.1% absolute slack: a run with near-zero dwell must not fail
				// on a microscopic increase.
				add(k, "stall_dwell_frac", oFrac, nFrac, nFrac > oFrac*(1+tol.Dwell)+0.001)
			}
		}
	}
	return res
}

// WriteTable renders the diff as an aligned human-readable table, regressions
// marked, followed by a summary line.
func (d *DiffResult) WriteTable(w io.Writer) {
	if len(d.Missing) > 0 {
		for _, m := range d.Missing {
			fmt.Fprintf(w, "unmatched run: %s\n", m)
		}
	}
	if len(d.Deltas) == 0 {
		fmt.Fprintln(w, "no comparable metrics")
		return
	}
	fmt.Fprintf(w, "%-28s %-34s %14s %14s %9s\n", "run", "metric", "old", "new", "delta")
	lastRun := ""
	for _, dl := range d.Deltas {
		run := dl.Run
		if run == lastRun {
			run = ""
		} else {
			lastRun = dl.Run
		}
		mark := ""
		if dl.Regressed {
			mark = "  << REGRESSION"
		}
		fmt.Fprintf(w, "%-28s %-34s %14s %14s %+8.1f%%%s\n",
			run, dl.Metric, fmtVal(dl.Metric, dl.Old), fmtVal(dl.Metric, dl.New), 100*dl.Pct, mark)
	}
	if reg := d.Regressions(); len(reg) > 0 {
		fmt.Fprintf(w, "\n%d metric(s) regressed beyond tolerance\n", len(reg))
	} else {
		fmt.Fprintf(w, "\nno regressions beyond tolerance (%d metrics compared)\n", len(d.Deltas))
	}
}

func fmtVal(metric string, v float64) string {
	switch {
	case metric == "stall_dwell_frac":
		return fmt.Sprintf("%.4f", v)
	case metric == "kops_per_sec":
		return fmt.Sprintf("%.1f", v)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
