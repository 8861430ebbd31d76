// Command experiments regenerates the paper's evaluation figures (Figures 4,
// 5, 10-16) and the two extensions on the simulated platform: a loop over the
// registry in internal/bench. Each figure prints as aligned text tables with
// the same rows/series the paper plots.
//
//	experiments -list                          # the figures
//	experiments -fig 10 -ops 1000000           # one figure at a custom op count
//	experiments -fig 4,wa -md EXPERIMENTS.md   # rerun them at the op counts their blocks record, rewrite the blocks
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"cachekv/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "comma-separated figures to regenerate (see -list), or 'all'")
	ops := flag.Int64("ops", 200_000, "ops per measured phase (paper used 10M)")
	ycsbOps := flag.Int64("ycsb-ops", 100_000, "ops per YCSB phase (paper used 5M)")
	mdPath := flag.String("md", "", "rewrite the regenerated figures' blocks and the Summary's measured values in this Markdown file")
	list := flag.Bool("list", false, "list available figures and exit")
	flag.Parse()

	wanted := map[string]bool{}
	for _, id := range strings.Split(*fig, ",") {
		wanted[strings.TrimSpace(id)] = true
	}
	var selected []bench.Figure
	for _, f := range bench.Figures {
		if *list {
			fmt.Printf("%-9s %s\n", f.ID, f.Summary)
		} else if wanted["all"] || wanted[f.ID] {
			selected = append(selected, f)
		}
		delete(wanted, f.ID)
	}
	delete(wanted, "all")
	for id := range wanted {
		check(fmt.Errorf("unknown figure %q (see -list)", id))
	}
	// With -md and neither -ops nor -ycsb-ops, a figure reruns at its block's.
	rescale := false
	flag.Visit(func(f *flag.Flag) { rescale = rescale || f.Name == "ops" || f.Name == "ycsb-ops" })
	var doc []byte
	if *mdPath != "" {
		var err error
		doc, err = os.ReadFile(*mdPath)
		check(err)
	}

	ran := map[string]bench.Rendered{}
	for _, f := range selected {
		scale := bench.Scale{Ops: *ops, YCSBOps: *ycsbOps}
		if *mdPath != "" && !rescale {
			n, err := bench.RecordedOps(string(doc), f.ID)
			check(err)
			scale = bench.Scale{Ops: n, YCSBOps: n}
		}
		r, err := f.Run(scale)
		check(err)
		for _, t := range r.Tables {
			fmt.Println(t)
		}
		ran[f.ID] = r
	}
	if *mdPath != "" {
		out, err := bench.UpdateDoc(string(doc), ran, rescale)
		check(err)
		check(os.WriteFile(*mdPath, []byte(out), 0o644))
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
		os.Exit(1)
	}
}
