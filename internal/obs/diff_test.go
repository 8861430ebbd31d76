package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cachekv/internal/histogram"
)

// diffRun builds a plausible self-consistent run for diff tests.
func diffRun() RunReport {
	return RunReport{
		Engine:     "CacheKV",
		Workload:   "ycsb-c",
		Ops:        1000,
		Threads:    1,
		ElapsedVNs: 1_000_000,
		KopsPerSec: 1000,
		OpStats: []OpStat{
			{
				Op: "get", Count: 1000, TotalNs: 500_000,
				Latency: histogram.Summary{MeanNs: 500, P99Ns: 900, P999Ns: 1500},
				Layers: []OpLayer{
					{Layer: "direct", Ns: 100_000},
					{Layer: "index", Ns: 400_000},
				},
			},
		},
	}
}

// withDwell attaches flow-control dwell counters to a run.
func withDwell(r RunReport, slowdownNs, stopNs int64) RunReport {
	reg := NewRegistry()
	reg.Counter("flow_dwell_slowdown_ns", func() int64 { return slowdownNs })
	reg.Counter("flow_dwell_stop_ns", func() int64 { return stopNs })
	r.Metrics = reg.Gather()
	return r
}

func TestDiffSelfIsClean(t *testing.T) {
	old := []RunReport{withDwell(diffRun(), 10_000, 5_000)}
	res := DiffRuns(old, old, DiffTolerances{})
	if reg := res.Regressions(); len(reg) != 0 {
		t.Fatalf("self-diff regressed: %+v", reg)
	}
	if len(res.Deltas) == 0 {
		t.Fatal("self-diff compared nothing")
	}
	if len(res.Missing) != 0 {
		t.Fatalf("self-diff missing runs: %v", res.Missing)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if strings.Contains(buf.String(), "REGRESSION") {
		t.Fatalf("clean table mentions regression:\n%s", buf.String())
	}
}

func TestDiffDetectsRegressions(t *testing.T) {
	old := withDwell(diffRun(), 10_000, 0)
	bad := withDwell(diffRun(), 10_000, 0)
	// +30% mean get latency (tolerance 15%), -30% throughput (15%).
	bad.KopsPerSec = 700
	bad.OpStats[0].TotalNs = 650_000
	bad.OpStats[0].Latency.MeanNs = 650

	res := DiffRuns([]RunReport{old}, []RunReport{bad}, DiffTolerances{})
	reg := res.Regressions()
	byMetric := map[string]bool{}
	for _, d := range reg {
		byMetric[d.Metric] = true
	}
	if !byMetric["kops_per_sec"] || !byMetric["op/get/mean_ns"] {
		t.Fatalf("expected throughput and mean regressions, got %+v", reg)
	}
	var buf bytes.Buffer
	res.WriteTable(&buf)
	if !strings.Contains(buf.String(), "<< REGRESSION") {
		t.Fatalf("table missing regression mark:\n%s", buf.String())
	}
}

func TestDiffDirectionAware(t *testing.T) {
	old := diffRun()
	better := diffRun()
	// Faster AND higher throughput: improvements never regress.
	better.KopsPerSec = 2000
	better.OpStats[0].TotalNs = 250_000
	better.OpStats[0].Latency = histogram.Summary{MeanNs: 250, P99Ns: 400, P999Ns: 700}
	better.OpStats[0].Layers = []OpLayer{
		{Layer: "direct", Ns: 50_000}, {Layer: "index", Ns: 200_000},
	}
	res := DiffRuns([]RunReport{old}, []RunReport{better}, DiffTolerances{})
	if reg := res.Regressions(); len(reg) != 0 {
		t.Fatalf("improvement flagged as regression: %+v", reg)
	}
}

func TestDiffTailAndDwellGates(t *testing.T) {
	old := withDwell(diffRun(), 100_000, 0) // dwell frac 0.1
	bad := withDwell(diffRun(), 160_000, 0) // +60% dwell
	bad.OpStats[0].Latency.P999Ns = 2100    // +40% tail (tolerance 25%)
	res := DiffRuns([]RunReport{old}, []RunReport{bad}, DiffTolerances{})
	byMetric := map[string]bool{}
	for _, d := range res.Regressions() {
		byMetric[d.Metric] = true
	}
	if !byMetric["op/get/p999_ns"] || !byMetric["stall_dwell_frac"] {
		t.Fatalf("tail/dwell regression missed: %+v", res.Regressions())
	}
}

func TestDiffSkipsAbsentMetrics(t *testing.T) {
	// Old report predates p99.9 and dwell counters: those metrics must be
	// skipped, not failed.
	old := diffRun()
	old.OpStats[0].Latency.P999Ns = 0
	newer := withDwell(diffRun(), 1<<40, 1<<40)
	newer.OpStats[0].Latency.P999Ns = 99_999_999
	res := DiffRuns([]RunReport{old}, []RunReport{newer}, DiffTolerances{})
	for _, d := range res.Deltas {
		if d.Metric == "op/get/p999_ns" || d.Metric == "stall_dwell_frac" {
			t.Fatalf("metric absent on one side was compared: %+v", d)
		}
	}
	if reg := res.Regressions(); len(reg) != 0 {
		t.Fatalf("absent metrics regressed: %+v", reg)
	}
}

func TestDiffUnmatchedRunsListedNotFailed(t *testing.T) {
	old := diffRun()
	extra := diffRun()
	extra.Workload = "ycsb-a"
	res := DiffRuns([]RunReport{old}, []RunReport{old, extra}, DiffTolerances{})
	if len(res.Missing) != 1 || !strings.Contains(res.Missing[0], "new only") {
		t.Fatalf("missing list wrong: %v", res.Missing)
	}
	if reg := res.Regressions(); len(reg) != 0 {
		t.Fatalf("unmatched run caused regression: %+v", reg)
	}
}

func TestDiffLayerAbsoluteSlack(t *testing.T) {
	// A 10 ns/op layer tripling is noise, not a regression: the 50 ns/op
	// absolute slack must absorb it.
	old := diffRun()
	old.OpStats[0].Layers = []OpLayer{{Layer: "lock", Ns: 10_000}} // 10 ns/op
	bad := diffRun()
	bad.OpStats[0].Layers = []OpLayer{{Layer: "lock", Ns: 30_000}} // 30 ns/op
	res := DiffRuns([]RunReport{old}, []RunReport{bad}, DiffTolerances{})
	for _, d := range res.Regressions() {
		if strings.HasPrefix(d.Metric, "op/get/layer/") {
			t.Fatalf("noise-scale layer shift regressed: %+v", d)
		}
	}
	// A real shift (500 -> 900 ns/op) past slack and tolerance must trip.
	old.OpStats[0].Layers = []OpLayer{{Layer: "lock", Ns: 500_000}}
	bad.OpStats[0].Layers = []OpLayer{{Layer: "lock", Ns: 900_000}}
	res = DiffRuns([]RunReport{old}, []RunReport{bad}, DiffTolerances{})
	found := false
	for _, d := range res.Regressions() {
		if d.Metric == "op/get/layer/lock_ns" {
			found = true
		}
	}
	if !found {
		t.Fatalf("real layer regression missed: %+v", res.Deltas)
	}
}

func TestLoadReportFeedsDiff(t *testing.T) {
	rep := NewReport("test")
	rep.Runs = append(rep.Runs, diffRun(), diffRun())
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	runs := back.Runs
	if len(runs) != 2 || runs[0].Workload != "ycsb-c" {
		t.Fatalf("runs = %+v", runs)
	}
	// Duplicate engine/workload pairs must pair positionally, not collide.
	res := DiffRuns(runs, runs, DiffTolerances{})
	paired := map[string]bool{}
	for _, d := range res.Deltas {
		paired[d.Run] = true
	}
	if len(paired) != 2 || len(res.Missing) != 0 || len(res.Regressions()) != 0 {
		t.Fatalf("positional pairing broken: paired=%v missing=%v reg=%v", paired, res.Missing, res.Regressions())
	}
}

func TestLoadReportRejectsJunk(t *testing.T) {
	for name, raw := range map[string]string{
		"junk":          "not json",
		"run-free JSON": `{"hello": "world"}`,
		"wrong schema":  `{"schema": "cachekv.obs/v0", "tool": "test", "runs": [{"engine": "cachekv", "workload": "ycsb-c", "kops_per_sec": 1}]}`,
	} {
		path := filepath.Join(t.TempDir(), "in.json")
		if err := os.WriteFile(path, []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadReport(path); err == nil {
			t.Fatalf("%s accepted", name)
		}
	}
}
