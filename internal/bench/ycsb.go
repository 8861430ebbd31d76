package bench

import "fmt"

// YCSBSpec is one YCSB workload's op mix and distribution, as configured in
// the paper's Exp#4.
type YCSBSpec struct {
	Name    string
	Reads   float64
	Updates float64 // updates and inserts both issue puts
	RMW     float64
	Dist    string // "uniform", "zipfian", or "latest"
}

// String returns the workload's name, its column label in Figure 13.
func (s YCSBSpec) String() string { return s.Name }

// The six workloads of Figure 13.
var (
	YCSBLoad = YCSBSpec{Name: "Load", Updates: 1.0, Dist: "uniform"}
	YCSBA    = YCSBSpec{Name: "A", Reads: 0.5, Updates: 0.5, Dist: "zipfian"}
	YCSBB    = YCSBSpec{Name: "B", Reads: 0.95, Updates: 0.05, Dist: "zipfian"}
	YCSBC    = YCSBSpec{Name: "C", Reads: 1.0, Dist: "zipfian"}
	YCSBD    = YCSBSpec{Name: "D", Reads: 0.95, Updates: 0.05, Dist: "latest"}
	YCSBF    = YCSBSpec{Name: "F", Reads: 0.5, RMW: 0.5, Dist: "zipfian"}
)

// YCSBAll lists the Figure 13 workloads in order.
var YCSBAll = []YCSBSpec{YCSBLoad, YCSBA, YCSBB, YCSBC, YCSBD, YCSBF}

// workload converts the spec into a runnable phase over n loaded records.
func (s YCSBSpec) workload(records, ops int64, threads, valueSize int) Workload {
	var keys KeyGen
	switch s.Dist {
	case "zipfian":
		keys = NewZipfian(records)
	case "latest":
		keys = NewLatest(records)
	default:
		if s.Name == "Load" {
			keys = LoadKeys{}
		} else {
			keys = UniformKeys{N: records}
		}
	}
	return Workload{
		Name:      "YCSB-" + s.Name,
		Keys:      keys,
		ValueSize: valueSize,
		Ops:       ops,
		Threads:   threads,
		Mix:       Mix{PutFrac: s.Updates, RMWFrac: s.RMW},
		Seed:      uint64(len(s.Name)) + 42,
	}
}

// RunYCSB executes the load phase followed by spec (unless spec is the load
// itself) and returns the measured phase's result. When the runner carries an
// attribution collector it is detached during the load, so per-op stats (and
// the thread-busy-time invariant they must satisfy) cover exactly the
// measured phase.
func RunYCSB(r *Runner, spec YCSBSpec, records, ops int64, threads, valueSize int) (Result, error) {
	if spec.Name != "Load" {
		load := YCSBLoad.workload(records, records, threads, valueSize)
		col := r.Col
		r.Col = nil
		_, err := r.Run(load)
		r.Col = col
		if err != nil {
			return Result{}, fmt.Errorf("ycsb load: %w", err)
		}
	}
	return r.Run(spec.workload(records, ops, threads, valueSize))
}
