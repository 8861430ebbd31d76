package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"strconv"
)

// runSelfcheck runs every workload twice at the same seed, each run in a
// fresh process, and holds the two sets to the catalogue's bounds: a metric
// that the same commit cannot repeat within its bound cannot gate a change.
// It prints the spread table that goes into README.md.
func runSelfcheck(cfg config) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	one := func(workload string) (map[string]float64, error) {
		args := []string{"-workload", workload, "-seed", strconv.FormatUint(cfg.seed, 10),
			"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64), "-trace", "0", "-out", cfg.outDir}
		if cfg.smoke {
			args = append(args, "-smoke")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		out, err := cmd.Output() // waits for the child to end
		if err != nil {
			return nil, fmt.Errorf("%s: %w", workload, err)
		}
		lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
		var res struct {
			Correct bool `json:"correct"`
			Metrics map[string]struct {
				Value float64 `json:"value"`
			} `json:"metrics"`
		}
		if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
			return nil, fmt.Errorf("%s: last line is not the result object: %w", workload, err)
		}
		if !res.Correct {
			return nil, fmt.Errorf("%s: the run reports incorrect results", workload)
		}
		m := map[string]float64{}
		for name, v := range res.Metrics {
			m[name] = v.Value
		}
		return m, nil
	}

	bad := 0
	fmt.Printf("| workload | metric | run 1 | run 2 | differ by | bound |\n|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		a, err := one(w.name)
		if err == nil {
			var b map[string]float64
			if b, err = one(w.name); err == nil {
				for _, d := range endToEnd {
					diff := math.Abs(a[d.Name]-b[d.Name]) / math.Min(a[d.Name], b[d.Name])
					mark := ""
					if !(diff <= d.Bound) {
						mark = " **over**"
						bad++
					}
					fmt.Printf("| %s | %s | %.4g | %.4g | %.2f %%%s | %.0f %% |\n", w.name, d.Name, a[d.Name], b[d.Name], 100*diff, mark, 100*d.Bound)
				}
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			bad++
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d metric(s) or run(s) outside the bounds\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every end-to-end metric of every workload repeats within its bound")
	return 0
}
