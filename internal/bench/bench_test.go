package bench

import (
	"strings"
	"testing"

	"cachekv/internal/hw/sim"
)

func TestKeyGenerators(t *testing.T) {
	rng := sim.NewRNG(1)
	var buf []byte
	// Sequential: ascending distinct keys.
	seq := SequentialKeys{}
	a := string(seq.Key(buf, 1, rng))
	b := string(seq.Key(buf, 2, rng))
	if len(a) != 16 || a >= b {
		t.Fatalf("sequential keys wrong: %q, %q", a, b)
	}
	// Load and uniform agree on the record universe.
	load := LoadKeys{}
	uni := UniformKeys{N: 1000}
	loaded := map[string]bool{}
	for i := int64(0); i < 1000; i++ {
		loaded[string(load.Key(buf, i, rng))] = true
	}
	for i := int64(0); i < 2000; i++ {
		k := string(uni.Key(buf, i, rng))
		if !loaded[k] {
			t.Fatalf("uniform drew key %q outside the loaded set", k)
		}
	}
}

func TestZipfianSkew(t *testing.T) {
	z := NewZipfian(10000)
	rng := sim.NewRNG(7)
	counts := map[string]int{}
	var buf []byte
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[string(z.Key(buf, int64(i), rng))]++
	}
	// Zipf(0.99) over 10k items: the most popular item takes several percent
	// of draws; uniform would give 0.01%.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if frac := float64(max) / draws; frac < 0.01 {
		t.Fatalf("zipfian not skewed: hottest item only %.4f", frac)
	}
	if len(counts) < 1000 {
		t.Fatalf("zipfian too degenerate: only %d distinct keys", len(counts))
	}
}

func TestLatestSkewsToFrontier(t *testing.T) {
	l := NewLatest(10000)
	rng := sim.NewRNG(9)
	var buf []byte
	recent := 0
	const draws = 20000
	frontierKeys := map[string]bool{}
	for r := int64(9000); r < 10000+draws; r++ {
		frontierKeys[string(recordKey(nil, r))] = true
	}
	for i := 0; i < draws; i++ {
		k := string(l.Key(buf, int64(i), rng))
		if frontierKeys[k] {
			recent++
		}
	}
	if frac := float64(recent) / draws; frac < 0.5 {
		t.Fatalf("latest distribution not recency-skewed: %.3f", frac)
	}
}

func TestValueGenDeterministic(t *testing.T) {
	a := NewValueGen(64)
	b := NewValueGen(64)
	if string(a.Value(42)) != string(b.Value(42)) {
		t.Fatal("values not deterministic")
	}
	if a.Size() != 64 || len(a.Value(1)) != 64 {
		t.Fatal("value size wrong")
	}
}

func TestRunnerSmoke(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.PMemBytes = 1 << 30
	r, th, err := openRunner(cfg, CacheKV)
	if err != nil {
		t.Fatal(err)
	}
	defer closeRunner(r, th)
	res, err := fillRandom(r, 20000, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.KopsPerSec <= 0 || res.ElapsedNs <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Read phase continues from the write epoch.
	epoch := r.Epoch()
	rres, err := r.Run(Workload{
		Name: "read", Keys: UniformKeys{N: 20000}, ValueSize: 64,
		Ops: 20000, Threads: 2, Mix: ReadOnly, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Epoch() <= epoch {
		t.Fatal("epoch did not advance")
	}
	if rres.NotFound == 20000 {
		t.Fatal("read phase found nothing — fill/read key mismatch")
	}
}

func TestAllEnginesRunnable(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.PMemBytes = 1 << 30
	for _, kind := range AllEngines {
		r, th, err := openRunner(cfg, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		res, err := fillRandom(r, 5000, 2, 64)
		if err != nil {
			t.Fatalf("%s fill: %v", kind, err)
		}
		if res.KopsPerSec <= 0 {
			t.Fatalf("%s: zero throughput", kind)
		}
		rres, err := r.Run(Workload{
			Name: "read", Keys: UniformKeys{N: 5000}, ValueSize: 64,
			Ops: 5000, Threads: 2, Mix: ReadOnly, Seed: 3,
		})
		if err != nil {
			t.Fatalf("%s read: %v", kind, err)
		}
		if rres.NotFound == 5000 {
			t.Fatalf("%s: reads found nothing", kind)
		}
		closeRunner(r, th)
	}
}

func TestTableFormatting(t *testing.T) {
	tab := &Table{
		Title:   "demo",
		Note:    "a note",
		Headers: []string{"sys", "col"},
	}
	tab.AddRow("x", "1.0")
	out := tab.String()
	for _, want := range []string{"demo", "a note", "sys", "1.0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestEngineKindString(t *testing.T) {
	if CacheKV.String() != "CacheKV" || SLMDBWoFlush.String() != "SLM-DB-w/o-flush" {
		t.Fatal("engine names wrong")
	}
	if EngineKind(99).String() == "" {
		t.Fatal("unknown kind must still render")
	}
}

// Every engine parses back from its display name in either letter case, and
// an unknown name is an error that lists the valid ones.
func TestParseEngine(t *testing.T) {
	for _, k := range AllEngines {
		for _, name := range []string{k.String(), strings.ToLower(k.String())} {
			if got, err := ParseEngine(name); err != nil || got != k {
				t.Fatalf("ParseEngine(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
	}
	_, err := ParseEngine("rocksdb")
	if err == nil || !strings.Contains(err.Error(), "novelsm-w/o-flush") || !strings.Contains(err.Error(), "cachekv") {
		t.Fatalf("unknown engine error = %v", err)
	}
}

func TestYCSBSpecs(t *testing.T) {
	if YCSBA.Reads != 0.5 || YCSBA.Updates != 0.5 || YCSBA.Dist != "zipfian" {
		t.Fatal("YCSB-A spec wrong")
	}
	if YCSBC.Reads != 1.0 || YCSBD.Dist != "latest" || YCSBF.RMW != 0.5 {
		t.Fatal("YCSB specs wrong")
	}
	w := YCSBB.workload(1000, 500, 2, 64)
	if w.Ops != 500 || w.Threads != 2 || w.Mix.PutFrac != 0.05 {
		t.Fatalf("workload conversion wrong: %+v", w)
	}
}

func TestRunYCSBSmoke(t *testing.T) {
	cfg := DefaultEngineConfig()
	cfg.PMemBytes = 1 << 30
	r, th, err := openRunner(cfg, CacheKV)
	if err != nil {
		t.Fatal(err)
	}
	defer closeRunner(r, th)
	res, err := RunYCSB(r, YCSBA, 5000, 5000, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	if res.KopsPerSec <= 0 {
		t.Fatal("YCSB-A produced no throughput")
	}
	// Zipfian reads over loaded records should nearly always hit.
	if float64(res.NotFound) > 0.2*5000 {
		t.Fatalf("too many misses: %d", res.NotFound)
	}
}
