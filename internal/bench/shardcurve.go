package bench

// shardcurve.go measures the sharded engine's thread-scaling: for each thread
// count T it runs YCSB-A and YCSB-C against the classic single engine
// (Shards=1, the serialization baseline) and against a T-shard router
// (Shards=T), producing the 1→32 virtual-core scaling curve committed as
// BENCH_shard.json. The workload is sized so the single engine is
// flush-pipeline-bound (writes far exceed the pool), which is exactly the
// serialization sharding removes: N shards run N flush/spill pipelines.

import (
	"encoding/json"
	"fmt"
	"os"

	"cachekv/internal/core"
	"cachekv/internal/obs"
)

// ShardCurveConfig sizes the scaling experiment.
type ShardCurveConfig struct {
	Records   int64 `json:"records"`
	Ops       int64 `json:"ops"`
	ValueSize int   `json:"value_size"`
	// Threads lists the thread counts; each point pairs a 1-shard baseline
	// with a Shards=Threads run.
	Threads []int `json:"threads"`
	// PoolBytes / SubMemTableBytes shrink the memory component so the write
	// volume turns the pool over many times and the flush pipeline sets the
	// single-engine pace (the paper's steady-state write regime).
	PoolBytes        uint64 `json:"pool_bytes"`
	SubMemTableBytes uint64 `json:"sub_memtable_bytes"`
}

// DefaultShardCurveConfig is the committed BENCH_shard.json configuration:
// 4 KiB values over a 4 MiB pool, so the measured phase rewrites the pool
// several times over and the baseline runs at the flush pipeline's pace
// (a 256 KiB slot holds ~60 such entries, so the fixed per-flush cost
// dominates and the single engine's one-pipeline serialization shows).
func DefaultShardCurveConfig() ShardCurveConfig {
	return ShardCurveConfig{
		Records:          6000,
		Ops:              6000,
		ValueSize:        4096,
		Threads:          []int{1, 2, 4, 8, 16, 32},
		PoolBytes:        4 << 20,
		SubMemTableBytes: 256 << 10,
	}
}

// ShardCurvePoint is one (workload, threads, shards) measurement.
type ShardCurvePoint struct {
	Workload       string  `json:"workload"`
	Threads        int     `json:"threads"`
	Shards         int     `json:"shards"`
	KopsPerSec     float64 `json:"kops_per_sec"`
	ElapsedVNs     int64   `json:"elapsed_vns"`
	VirtualNsPerOp float64 `json:"virtual_ns_per_op"`

	// Group-commit effectiveness (zero on the 1-shard baseline).
	GroupCommits   int64   `json:"group_commits,omitempty"`
	GroupedOps     int64   `json:"grouped_ops,omitempty"`
	AvgGroupSize   float64 `json:"avg_group_size,omitempty"`
	GroupWaitP99Ns int64   `json:"group_wait_p99_ns,omitempty"`

	// SpeedupVsBaseline divides this point's throughput by the same
	// workload's 1-shard baseline at the same thread count.
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`

	// Report carries the cachekv.obs/v1 payload — per-op [op][layer]
	// attribution matrices and the unified metrics registry.
	Report obs.RunReport `json:"report"`
	// VerifyViolations lists obs invariant failures (must stay empty).
	VerifyViolations []string `json:"verify_violations,omitempty"`
}

// ShardCurveReport is the BENCH_shard.json payload.
type ShardCurveReport struct {
	Schema string            `json:"schema"`
	Config ShardCurveConfig  `json:"config"`
	Points []ShardCurvePoint `json:"points"`
	// YCSBASpeedupAt8 is the acceptance headline: sharded YCSB-A throughput
	// at 8 shards / 8 threads over the 1-shard baseline at 8 threads.
	YCSBASpeedupAt8 float64 `json:"ycsb_a_speedup_at_8_shards"`
}

// runShardPoint executes one (spec, threads, shards) cell on a fresh machine.
func runShardPoint(cfg ShardCurveConfig, spec YCSBSpec, threads, shards, cores int) (ShardCurvePoint, error) {
	tr := obs.NewTrace(obs.DefaultTraceCap)
	ec := DefaultEngineConfig()
	ec.DataBytes = uint64(cfg.Records) * uint64(cfg.ValueSize+40)
	ec.PoolBytes = cfg.PoolBytes
	ec.SubMemTableBytes = cfg.SubMemTableBytes
	ec.Cores = cores
	ec.Shards = shards
	ec.Obs = true
	ec.Trace = tr

	m := ec.NewMachine()
	th := m.NewThread(0)
	db, err := ec.Open(CacheKV, m, th)
	if err != nil {
		return ShardCurvePoint{}, fmt.Errorf("shardcurve open (shards=%d): %w", shards, err)
	}
	r := NewRunner(m, db)
	r.Col = obs.NewCollector()
	res, err := RunYCSB(r, spec, cfg.Records, cfg.Ops, threads, cfg.ValueSize)
	if err != nil {
		return ShardCurvePoint{}, fmt.Errorf("shardcurve %s t=%d s=%d: %w", spec.Name, threads, shards, err)
	}
	p := ShardCurvePoint{
		Workload:       "YCSB-" + spec.Name,
		Threads:        threads,
		Shards:         shards,
		KopsPerSec:     res.KopsPerSec,
		ElapsedVNs:     res.ElapsedNs,
		VirtualNsPerOp: float64(res.ElapsedNs) * float64(threads) / float64(res.Ops),
	}
	if sh, ok := db.(*core.Sharded); ok {
		groups, ops, _ := sh.GroupCommitStats()
		p.GroupCommits, p.GroupedOps = groups, ops
		if groups > 0 {
			p.AvgGroupSize = float64(ops) / float64(groups)
		}
		_, wait := sh.GroupCommitHists()
		p.GroupWaitP99Ns = int64(wait.Percentile(0.99))
	}
	p.Report = BuildRunReport(res, r, tr, false)
	p.VerifyViolations = p.Report.Verify()
	return p, db.Close(th)
}

// RunShardCurve produces the full scaling curve for YCSB-A and YCSB-C.
func RunShardCurve(cfg ShardCurveConfig) (*ShardCurveReport, error) {
	if len(cfg.Threads) == 0 {
		cfg.Threads = DefaultShardCurveConfig().Threads
	}
	cores := 0
	for _, t := range cfg.Threads {
		if t > cores {
			cores = t
		}
	}
	if cores < 24 {
		cores = 24 // never smaller than the paper's testbed
	}
	rep := &ShardCurveReport{Schema: obs.Schema, Config: cfg}
	for _, spec := range []YCSBSpec{YCSBA, YCSBC} {
		baseline := map[int]float64{} // threads -> 1-shard kops
		for _, t := range cfg.Threads {
			base, err := runShardPoint(cfg, spec, t, 1, cores)
			if err != nil {
				return nil, err
			}
			baseline[t] = base.KopsPerSec
			base.SpeedupVsBaseline = 1
			rep.Points = append(rep.Points, base)

			if t > 1 {
				sh, err := runShardPoint(cfg, spec, t, t, cores)
				if err != nil {
					return nil, err
				}
				if b := baseline[t]; b > 0 {
					sh.SpeedupVsBaseline = sh.KopsPerSec / b
				}
				rep.Points = append(rep.Points, sh)
				if spec.Name == "A" && t == 8 {
					rep.YCSBASpeedupAt8 = sh.SpeedupVsBaseline
				}
			}
		}
	}
	return rep, nil
}

// WriteJSON writes the report to path, indented for diff-friendly commits.
func (r *ShardCurveReport) WriteJSON(path string) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
