package bench

import (
	"strings"
	"sync/atomic"
	"testing"

	"cachekv/internal/engines"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
)

// openTest opens kind on a 1 GiB platform, closed when the test ends.
func openTest(t *testing.T, kind engines.Kind) *openCell {
	t.Helper()
	cfg := EngineConfig{PMemBytes: 1 << 30}
	c, err := Cell{Kind: kind, Config: cfg}.open(cfg.NewMachine())
	if err != nil {
		t.Fatalf("%s: %v", kind, err)
	}
	t.Cleanup(func() { c.DB.Close(c.th) })
	return c
}

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
	if a.size != 64 || len(a.Value(1)) != 64 {
		t.Fatal("value size wrong")
	}
}

func TestRunnerSmoke(t *testing.T) {
	r := openTest(t, engines.CacheKV)
	res, err := fillRandom(20000, 2, 64)(r)
	if err != nil {
		t.Fatal(err)
	}
	if res.KopsPerSec <= 0 || res.ElapsedNs <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	// Read phase continues from the write epoch.
	epoch := r.epoch
	rres, err := r.Run(Workload{
		Name: "read", Keys: UniformKeys{N: 20000}, ValueSize: 64,
		Ops: 20000, Threads: 2, Mix: ReadOnly, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.epoch <= epoch {
		t.Fatal("epoch did not advance")
	}
	if rres.NotFound == 20000 {
		t.Fatal("read phase found nothing — fill/read key mismatch")
	}
}

func TestAllEnginesRunnable(t *testing.T) {
	for _, kind := range engines.All() {
		t.Run(kind.String(), func(t *testing.T) {
			r := openTest(t, kind)
			res, err := fillRandom(5000, 2, 64)(r)
			if err != nil {
				t.Fatalf("fill: %v", err)
			}
			if res.KopsPerSec <= 0 {
				t.Fatal("zero throughput")
			}
			rres, err := r.Run(Workload{
				Name: "read", Keys: UniformKeys{N: 5000}, ValueSize: 64,
				Ops: 5000, Threads: 2, Mix: ReadOnly, Seed: 3,
			})
			if err != nil {
				t.Fatalf("read: %v", err)
			}
			if rres.NotFound == 5000 {
				t.Fatal("reads found nothing")
			}
		})
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
	r := openTest(t, engines.CacheKV)
	res, err := RunYCSB(r.Runner, YCSBA, 5000, 5000, 2, 64)
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

// countingDB counts the calls a Runner makes; every Get misses.
type countingDB struct {
	kvstore.DB // nil: any other call is a test bug
	calls      atomic.Int64
}

func (d *countingDB) Put(*hw.Thread, []byte, []byte) error { d.calls.Add(1); return nil }
func (d *countingDB) Get(*hw.Thread, []byte) ([]byte, error) {
	d.calls.Add(1)
	return nil, kvstore.ErrNotFound
}
func (d *countingDB) Name() string { return "counting" }

// Run executes every op it reports: the remainder of Ops / Threads goes to
// the first threads instead of being dropped, so the reported count, the
// latency histogram and the calls the engine saw all agree.
func TestRunExecutesEveryOp(t *testing.T) {
	m := EngineConfig{}.NewMachine()
	for _, tc := range []struct {
		ops     int64
		threads int
	}{{10, 4}, {3, 4}, {24, 24}, {200_000, 24}} {
		for _, mix := range []Mix{WriteOnly, ReadOnly} {
			db := &countingDB{}
			res, err := NewRunner(m, db).Run(Workload{
				Keys: UniformKeys{N: tc.ops}, ValueSize: 8, Ops: tc.ops, Threads: tc.threads, Mix: mix,
			})
			if err != nil {
				t.Fatal(err)
			}
			if res.Ops != tc.ops || res.Latency.Count() != res.Ops || db.calls.Load() != res.Ops {
				t.Errorf("%d ops on %d threads: reported %d, timed %d, engine saw %d",
					tc.ops, tc.threads, res.Ops, res.Latency.Count(), db.calls.Load())
			}
			if res.KopsPerSec <= 0 {
				t.Errorf("%d ops on %d threads: %.1f Kops/s", tc.ops, tc.threads, res.KopsPerSec)
			}
		}
	}
}
