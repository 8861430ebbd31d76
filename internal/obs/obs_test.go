package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
)

// testMachine is a small platform (the faultinject harness scale) with the
// attribution tally enabled.
func testMachine() *hw.Machine {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 64 << 20
	cfg.Cores = 4
	cfg.Cache = cache.Config{SizeBytes: 8 << 20, Ways: 12, Domain: cache.EADR}
	m := hw.NewMachine(cfg)
	m.EnableObs()
	return m
}

func TestSpanAttribution(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	col := NewCollector()

	sp := col.StartOp(th, OpPut)
	th.InPhase(hw.PhaseWAL, func() { th.Clock.Advance(100) })
	th.InPhase(hw.PhaseIndex, func() { th.Clock.Advance(40) })
	th.Clock.Advance(60) // outside every phase -> direct layer
	total := sp.End()

	if total != 200 {
		t.Fatalf("span total = %d, want 200", total)
	}
	if got := col.LayerNs(OpPut, int(hw.PhaseWAL.Layer())); got != 100 {
		t.Fatalf("wal layer ns = %d, want 100", got)
	}
	if got := col.LayerNs(OpPut, int(hw.PhaseIndex.Layer())); got != 40 {
		t.Fatalf("index layer ns = %d, want 40", got)
	}
	if got := col.LayerNs(OpPut, 0); got != 60 {
		t.Fatalf("direct layer ns = %d, want 60", got)
	}
	if got := col.TotalNs(OpPut); got != 200 {
		t.Fatalf("total ns = %d, want 200", got)
	}
	if got := col.Hist(OpPut).Count(); got != 1 {
		t.Fatalf("hist count = %d, want 1", got)
	}

	// Per-op layer sums must equal totals exactly for non-nested phases.
	for _, st := range col.OpStats() {
		var sum int64
		for _, l := range st.Layers {
			sum += l.Ns
		}
		if sum != st.TotalNs {
			t.Fatalf("op %s: layer sum %d != total %d", st.Op, sum, st.TotalNs)
		}
	}
}

func TestSpanNilSafety(t *testing.T) {
	var col *Collector
	m := testMachine()
	th := m.NewThread(0)
	sp := col.StartOp(th, OpGet)
	th.Clock.Advance(10)
	if sp.End() != 0 {
		t.Fatal("nil-collector span should be a no-op")
	}
	if col.Hist(OpGet) != nil || col.LayerNs(OpGet, 0) != 0 || col.TotalNs(OpGet) != 0 {
		t.Fatal("nil collector accessors should return zero values")
	}
	var c2 Collector
	if c2.StartOp(nil, OpGet).End() != 0 {
		t.Fatal("nil-thread span should be a no-op")
	}
}

func TestCollectorConcurrent(t *testing.T) {
	m := testMachine()
	col := NewCollector()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := m.NewThread(w)
			for i := 0; i < 2000; i++ {
				sp := col.StartOp(th, Op(i%int(NumOps)))
				th.InPhase(hw.PhaseAppend, func() { th.Clock.Advance(7) })
				sp.End()
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				_ = col.OpStats()
			}
		}
	}()
	wg.Wait()
	close(done)
	var n int64
	for op := Op(0); op < NumOps; op++ {
		n += col.Hist(op).Count()
	}
	if n != 8000 {
		t.Fatalf("recorded %d spans, want 8000", n)
	}
}

func TestTraceRing(t *testing.T) {
	tr := NewTrace(4)
	for i := 0; i < 6; i++ {
		tr.Emit(int64(i*10), "tick", "i", i)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 2 {
		t.Fatalf("Dropped = %d, want 2", tr.Dropped())
	}
	if tr.Seq() != 6 {
		t.Fatalf("Seq = %d, want 6", tr.Seq())
	}
	evs := tr.Events()
	if len(evs) != 4 || evs[0].Seq != 3 || evs[3].Seq != 6 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Type != "tick" || evs[0].Attrs["i"] != 2 {
		t.Fatalf("oldest event = %+v", evs[0])
	}
}

func TestTraceOddPairAndNil(t *testing.T) {
	var nilTr *Trace
	nilTr.Emit(1, "ignored") // must not panic
	if nilTr.Len() != 0 || nilTr.Events() != nil || nilTr.Dropped() != 0 || nilTr.Seq() != 0 {
		t.Fatal("nil trace should be inert")
	}
	tr := NewTrace(8)
	tr.Emit(5, "odd", "key-without-value")
	ev := tr.Events()[0]
	if v, ok := ev.Attrs["key-without-value"]; !ok || v != nil {
		t.Fatalf("odd trailing key not recorded: %+v", ev.Attrs)
	}
}

func TestTraceJSONL(t *testing.T) {
	tr := NewTrace(8)
	tr.Emit(100, "flush_start", "slot", 3)
	tr.Emit(250, "flush_end", "slot", 3, "bytes", 4096)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.String()
	sc := bufio.NewScanner(&buf)
	var lines int
	var evs []Event
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		evs = append(evs, ev)
		lines++
	}
	// Line 0 is the trace_meta header; the events follow.
	if lines != 3 {
		t.Fatalf("JSONL lines = %d, want 3 (meta + 2 events)", lines)
	}
	if evs[0].Type != "trace_meta" {
		t.Fatalf("first line type = %q, want trace_meta", evs[0].Type)
	}
	if tru, ok := evs[0].Attrs["truncated"].(bool); !ok || tru {
		t.Fatalf("unwrapped ring meta truncated = %v, want false", evs[0].Attrs["truncated"])
	}
	if !strings.Contains(raw, `"type":"flush_start"`) {
		t.Fatalf("JSONL missing type: %s", raw)
	}
}

func TestTraceConcurrent(t *testing.T) {
	tr := NewTrace(64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				tr.Emit(int64(i), "e", "w", w)
			}
		}(w)
	}
	wg.Wait()
	if tr.Seq() != 4000 {
		t.Fatalf("Seq = %d, want 4000", tr.Seq())
	}
	if tr.Len() != 64 {
		t.Fatalf("Len = %d, want 64", tr.Len())
	}
}

func TestRegistryOrderAndReplace(t *testing.T) {
	r := NewRegistry()
	r.Counter("b", func() int64 { return 1 })
	r.Counter("a", func() int64 { return 2 })
	r.Gauge("r", func() float64 { return 0.5 })
	// Re-registering replaces the reader but keeps position.
	r.Counter("b", func() int64 { return 10 })
	if got := r.Names(); got[0] != "b" || got[1] != "a" || got[2] != "r" {
		t.Fatalf("Names = %v", got)
	}
	s := r.Gather()
	if s.Int("b") != 10 || s.Int("a") != 2 || s.Float("r") != 0.5 {
		t.Fatalf("snapshot = %+v", s)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get on absent name should report false")
	}
}

func TestSnapshotTextAndGoldenJSON(t *testing.T) {
	s := &Snapshot{Metrics: []Metric{
		{Name: "pmem_media_write_bytes", Kind: KindCounter, Int: 4096},
		{Name: "llc_hit_ratio", Kind: KindGauge, Float: 0.25},
		{Name: "block_cache_hits", Kind: KindCounter, Int: 7},
	}}
	var buf bytes.Buffer
	s.WriteText(&buf)
	want := "pmem_media_write_bytes 4096\nllc_hit_ratio          0.2500\nblock_cache_hits       7\n"
	if buf.String() != want {
		t.Fatalf("WriteText:\n%s\nwant:\n%s", buf.String(), want)
	}

	// Golden: the sorted JSON exposition is pinned so schema drift is loud.
	b, err := s.MarshalSorted()
	if err != nil {
		t.Fatal(err)
	}
	golden := `{
  "metrics": [
    {
      "name": "block_cache_hits",
      "kind": "counter",
      "int": 7
    },
    {
      "name": "llc_hit_ratio",
      "kind": "gauge",
      "float": 0.25
    },
    {
      "name": "pmem_media_write_bytes",
      "kind": "counter",
      "int": 4096
    }
  ]
}`
	if string(b) != golden {
		t.Fatalf("MarshalSorted drifted:\n%s\nwant:\n%s", b, golden)
	}

	// And it must round-trip losslessly.
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Int("pmem_media_write_bytes") != 4096 || back.Float("llc_hit_ratio") != 0.25 {
		t.Fatalf("round-trip lost values: %+v", back)
	}
}

func TestSafeRatio(t *testing.T) {
	if got := SafeRatio(1, 0); got != 0 {
		t.Fatalf("SafeRatio(1, 0) = %v, want 0", got)
	}
	if got := SafeRatio(1, 4); got != 0.25 {
		t.Fatalf("SafeRatio(1, 4) = %v", got)
	}
	if got := SafeRatio(0, 5); got != 0 {
		t.Fatalf("SafeRatio(0, 5) = %v", got)
	}
}

func TestReportRoundTrip(t *testing.T) {
	rep := NewReport("test")
	rep.Runs = append(rep.Runs, RunReport{
		Engine:     "cachekv",
		Workload:   "YCSB-C",
		Ops:        1000,
		Threads:    2,
		ElapsedVNs: 500000,
		ThreadVNs:  990000,
		KopsPerSec: 2000,
		OpStats: []OpStat{{
			Op: "get", Count: 1000, TotalNs: 990000,
			Layers: []OpLayer{{Layer: "direct", Ns: 490000}, {Layer: "client", Ns: 500000}},
		}},
		Metrics: &Snapshot{Metrics: []Metric{
			{Name: MPMemLineArrivals, Kind: KindCounter, Int: 100},
			{Name: MPMemLineHits, Kind: KindCounter, Int: 40},
			{Name: MPMemMediaWriteB, Kind: KindCounter, Int: 25600},
			{Name: MPMemCallerWriteB, Kind: KindCounter, Int: 20000},
		}},
	})
	if bad := rep.Verify(); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != Schema || back.Tool != "test" || len(back.Runs) != 1 {
		t.Fatalf("round-trip header: %+v", back)
	}
	r0 := back.Runs[0]
	if r0.Engine != "cachekv" || r0.Ops != 1000 || r0.Metrics.Int(MPMemMediaWriteB) != 25600 {
		t.Fatalf("round-trip run: %+v", r0)
	}
	if bad := back.Verify(); len(bad) != 0 {
		t.Fatalf("verify after round-trip: %v", bad)
	}
}

func TestReportSchemaRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	rep := &Report{Schema: "cachekv.obs/v0", Tool: "test"}
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(path); err == nil {
		t.Fatal("LoadReport accepted a foreign schema")
	}
	if bad := rep.Verify(); len(bad) == 0 {
		t.Fatal("Verify accepted a foreign schema")
	}
}

func TestVerifyCatchesViolations(t *testing.T) {
	run := RunReport{
		OpStats: []OpStat{{
			Op: "get", Count: 10, TotalNs: 1000,
			Layers: []OpLayer{{Layer: "direct", Ns: 10}}, // way off
		}},
		Metrics: &Snapshot{Metrics: []Metric{
			{Name: MLLCHits, Kind: KindCounter, Int: 5},
			{Name: MLLCMisses, Kind: KindCounter, Int: 5},
			{Name: MLLCProbes, Kind: KindCounter, Int: 11}, // != 10
		}},
	}
	bad := run.Verify()
	if len(bad) < 2 {
		t.Fatalf("expected layer-sum and llc-probe violations, got %v", bad)
	}
}

// Point reads serve a block-cache miss in place or by an admitted fill;
// iterators account for the rest, so the two can never exceed the misses.
func TestVerifyBoundsPointReadMisses(t *testing.T) {
	run := func(direct, admitted, misses int64) RunReport {
		return RunReport{Metrics: &Snapshot{Metrics: []Metric{
			{Name: MBlockCacheHits, Kind: KindCounter, Int: 4},
			{Name: MBlockCacheMisses, Kind: KindCounter, Int: misses},
			{Name: MBlockCacheProbes, Kind: KindCounter, Int: 4 + misses},
			{Name: MSSTPointDirect, Kind: KindCounter, Int: direct},
			{Name: MBlockCacheAdmitted, Kind: KindCounter, Int: admitted},
		}}}
	}
	if r := run(6, 2, 10); len(r.Verify()) != 0 {
		t.Fatalf("6 direct + 2 admitted of 10 misses rejected: %v", r.Verify())
	}
	if r := run(9, 2, 10); len(r.Verify()) != 1 {
		t.Fatalf("9 direct + 2 admitted of 10 misses: got %v, want one violation", r.Verify())
	}
}

func TestTraceJSONLUnmarshalAttrs(t *testing.T) {
	// Attr round-trip: ints become float64 through JSON, which consumers must
	// tolerate; the event envelope itself is stable.
	tr := NewTrace(2)
	tr.Emit(42, "memtable_seal", "slot", 1)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitN(strings.TrimSpace(buf.String()), "\n", 2)
	if len(lines) != 2 {
		t.Fatalf("want meta line + event line, got %q", buf.String())
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatal(err)
	}
	if ev.Seq != 1 || ev.VNs != 42 || ev.Type != "memtable_seal" {
		t.Fatalf("envelope drifted: %+v", ev)
	}
}
