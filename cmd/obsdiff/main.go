// Command obsdiff explains the difference between two runs: it structurally
// diffs two cachekv.obs/v1 reports (ycsb -report), prints a human-readable
// delta table — throughput, per-op mean and tail latency, per-layer
// attribution, flow-control stall dwell — and exits non-zero when any metric
// regressed beyond its tolerance. The perf gate is the ledger (benchmark/),
// run on parent and change; this tool says which op and layer moved.
//
// Usage:
//
//	obsdiff [flags] OLD.json NEW.json
//
//	-tol 0.15        default relative tolerance (latency/throughput)
//	-tol-tail 0.25   p99 / p99.9 tolerance
//	-tol-layer 0.35  per-(op, layer) ns/op tolerance
//	-tol-dwell 0.15  stall dwell fraction tolerance
//	-verify          also check both reports' internal invariants
//	-json            emit the delta list as JSON instead of a table
//
// Runs pair up by engine/workload; runs present on only one side are listed
// but never fail the diff. A metric missing on either side — e.g. p99.9 in a
// report predating the field — is skipped for the same reason.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"cachekv/internal/obs"
)

func main() {
	tol := flag.Float64("tol", 0.15, "default relative tolerance (mean ns/op up, Kops/s down)")
	tolTail := flag.Float64("tol-tail", 0.25, "tolerance for p99/p99.9 latency")
	tolLayer := flag.Float64("tol-layer", 0.35, "tolerance for per-(op, layer) ns/op")
	tolDwell := flag.Float64("tol-dwell", 0.15, "tolerance for flow-control stall dwell fraction")
	verify := flag.Bool("verify", false, "also verify both reports' internal invariants")
	asJSON := flag.Bool("json", false, "emit deltas as JSON")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: obsdiff [flags] OLD.json NEW.json")
		os.Exit(2)
	}
	oldRuns := load(flag.Arg(0), *verify)
	newRuns := load(flag.Arg(1), *verify)

	res := obs.DiffRuns(oldRuns, newRuns, obs.DiffTolerances{
		NsPerOp:    *tol,
		Throughput: *tol,
		Tail:       *tolTail,
		Layer:      *tolLayer,
		Dwell:      *tolDwell,
	})
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		fmt.Printf("obsdiff %s -> %s\n\n", flag.Arg(0), flag.Arg(1))
		res.WriteTable(os.Stdout)
	}
	if len(res.Regressions()) > 0 {
		os.Exit(1)
	}
}

// load reads the report at path and returns its runs, exiting on failure.
func load(path string, verify bool) []obs.RunReport {
	rep, err := obs.LoadReport(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "obsdiff: %s: %v\n", path, err)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "obsdiff: %s: %d run(s) [%s]\n", path, len(rep.Runs), rep.Tool)
	if verify {
		if bad := rep.Verify(); len(bad) > 0 {
			for _, v := range bad {
				fmt.Fprintf(os.Stderr, "obsdiff: %s: %s\n", path, v)
			}
			os.Exit(2)
		}
	}
	return rep.Runs
}
