package main

import (
	"os"
	"regexp"
	"testing"
)

// The committed BENCHMARK.json is the catalogue, byte for byte, and stays
// inside the limits the driver sets for it.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatal("BENCHMARK.json differs from the catalogue; regenerate it with: go run . -manifest > ../BENCHMARK.json")
	}
	if len(got) > 64<<10 {
		t.Fatalf("BENCHMARK.json is %d bytes", len(got))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters", w.name, len(w.why))
		}
	}
	if len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics", len(endToEnd), len(perLayer))
	}
	var largest float64
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		check(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != higher && d.Better != lower) || d.Bound < 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q, better %q, bound %g", d.Name, d.Unit, d.Better, d.Bound)
		}
		largest = max(largest, d.Bound)
	}
	if s := endToEnd[len(endToEnd)-1]; s.Name != "setup_s" || s.Unit != "s" || s.Better != lower || s.Bound != largest {
		t.Errorf("setup_s must be there, in s, lower, with the largest bound: %+v", s)
	}
}

// Every workload and every probe runs at the smoke scale, traced and not,
// produces every metric of its catalogue, and checks clean.
func TestSmoke(t *testing.T) {
	out := t.TempDir()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: w.name, seed: 1, seconds: runSeconds, smoke: true, trace: trace, outDir: out}
			res, err := execute(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.correct() || res.attempted == 0 {
				t.Errorf("%s trace=%v: attempted %d, failed %d: %v", w.name, trace, res.attempted, res.failed, res.failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			for _, d := range defs {
				v, ok := res.metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s was not produced", w.name, trace, d.Name)
				}
				if !trace && !(v > 0) {
					t.Errorf("%s: end-to-end metric %s = %g, must never be 0", w.name, d.Name, v)
				}
			}
			if len(res.metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics reported, the catalogue has %d", w.name, trace, len(res.metrics), len(defs))
			}
		}
	}
}

// The same seed issues the same ops; another seed issues others.
func TestOpStreamDigest(t *testing.T) {
	for _, w := range workloads {
		var d [3]uint64
		for i, seed := range []uint64{5, 5, 6} {
			res, err := execute(config{workload: w.name, seed: seed, seconds: runSeconds, smoke: true})
			if err != nil {
				t.Fatal(err)
			}
			d[i] = res.digest
		}
		if d[0] != d[1] || d[0] == d[2] || d[0] == 0 {
			t.Errorf("%s: digests %x %x (seed 5 twice) and %x (seed 6)", w.name, d[0], d[1], d[2])
		}
	}
}
