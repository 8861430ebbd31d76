// Command benchmark is the repository's performance ledger: six workloads
// driven through the public cachekv API, reported in two currencies (virtual
// time prices the modelled design, host time prices the simulator) with the
// per-layer numbers of a separate traced run underneath. README.md in this
// directory is the catalogue.
//
//	bash benchmark/run.sh --workload fill --seed 1 --seconds 6 --trace 0
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
)

func main() {
	var cfg config
	var trace int
	var selfcheck, printManifest bool
	flag.StringVar(&cfg.workload, "workload", "", "one of: "+workloadNames())
	flag.Uint64Var(&cfg.seed, "seed", 1, "seed of every generated input")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "measured-phase budget; op counts are fixed and scale with seconds/"+fmt.Sprint(runSeconds))
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics of a traced run")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1/50 of every count")
	flag.StringVar(&cfg.outDir, "out", ".bench_build", "directory for a traced run's spans")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run every workload twice at -seed and hold the two sets to the bounds")
	flag.BoolVar(&printManifest, "manifest", false, "print BENCHMARK.json and exit")
	flag.Parse()

	switch {
	case printManifest:
		b, err := manifest()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(b)
		return
	case selfcheck:
		os.Exit(runSelfcheck(cfg))
	}
	if findWorkload(cfg.workload) == nil {
		fatal(fmt.Errorf("unknown workload %q; have: %s", cfg.workload, workloadNames()))
	}
	if cfg.seconds <= 0 || trace < 0 || trace > 1 {
		fatal(fmt.Errorf("need --seconds > 0 and --trace 0 or 1"))
	}
	cfg.trace = trace == 1
	res, err := execute(cfg)
	if err != nil {
		fatal(err)
	}
	printResult(cfg, res)
	if !res.correct() {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// execute runs one workload once.
func execute(cfg config) (*result, error) {
	r := newRun(cfg)
	if err := findWorkload(cfg.workload).run(r); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	r.finish()
	return r.res, nil
}

// printResult prints every metric by name with its unit, then the one-line
// JSON object the driver reads.
func printResult(cfg config, res *result) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("workload=%s seed=%d seconds=%g trace=%v gomaxprocs=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0))
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), max(res.attempted, 1), res.failed, map[string]value{}}
	for _, d := range defs {
		v, ok := res.metrics[d.Name]
		if !ok {
			res.failures = append(res.failures, "metric "+d.Name+" was not produced")
			out.Correct = false
		}
		out.Metrics[d.Name] = value{v, d.Unit}
		line := fmt.Sprintf("%-34s %16.4f %-8s %s is better", d.Name, v, d.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", bound %.2f", d.Bound)
		}
		if n := res.samples[d.Name]; n > 0 {
			line += fmt.Sprintf(", n=%d", n)
		}
		fmt.Println(line)
	}
	sort.Strings(res.notes)
	for _, n := range res.notes {
		fmt.Println("note:", n)
	}
	for _, f := range res.failures {
		fmt.Println("FAILED:", f)
	}
	fmt.Printf("failed_frac=%g claim=null\n", float64(res.failed)/float64(out.Attempted))
	b, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}
