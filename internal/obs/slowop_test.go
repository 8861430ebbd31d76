package obs

import (
	"math"
	"testing"

	"cachekv/internal/hw"
)

// slowTestThread builds a one-thread machine for span-driven capture tests.
func slowTestThread() (*hw.Machine, *hw.Thread) {
	m := hw.NewMachine(hw.DefaultConfig())
	return m, m.NewThread(0)
}

func TestSlowOpStaticCapture(t *testing.T) {
	_, th := slowTestThread()
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{StaticNs: 1000}, nil)

	// Fast op: below the threshold, no dossier, no threshold movement.
	sp := c.StartOp(th, OpGet)
	th.Clock.Advance(500)
	sp.End()
	if got := c.SlowOps(); len(got) != 0 {
		t.Fatalf("sub-threshold op captured: %+v", got)
	}

	// Slow op: phase time plus residual, both must appear in the dossier.
	sp = c.StartOp(th, OpPut)
	th.InPhase(hw.PhaseWAL, func() { th.Clock.Advance(3000) })
	th.Clock.Advance(500) // residual -> direct layer
	sp.End()

	ds := c.SlowOps()
	if len(ds) != 1 {
		t.Fatalf("dossiers = %d, want 1", len(ds))
	}
	d := ds[0]
	if d.Op != "put" || d.TotalNs != 3500 || d.ThresholdNs != 1000 || d.Adaptive {
		t.Fatalf("dossier header wrong: %+v", d)
	}
	if d.EndVNs-d.StartVNs != d.TotalNs {
		t.Fatalf("window inconsistent: %+v", d)
	}
	if d.WaitNs != 0 || d.BusyNs != 3500 {
		t.Fatalf("wait/busy split wrong: wait=%d busy=%d", d.WaitNs, d.BusyNs)
	}
	byLayer := map[string]int64{}
	for _, l := range d.Layers {
		byLayer[l.Layer] += l.Ns
	}
	if byLayer["wal"] != 3000 || byLayer["direct"] != 500 {
		t.Fatalf("layer breakdown wrong: %v", byLayer)
	}
	if bad := VerifySlowOps(ds); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
}

func TestSlowOpWaitSplit(t *testing.T) {
	_, th := slowTestThread()
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{StaticNs: 100}, nil)

	sp := c.StartOp(th, OpPut)
	th.Clock.Advance(400)                    // busy
	th.Clock.AdvanceTo(th.Clock.Now() + 600) // wait (e.g. blocked on a flush)
	sp.End()

	ds := c.SlowOps()
	if len(ds) != 1 {
		t.Fatalf("dossiers = %d, want 1", len(ds))
	}
	if ds[0].WaitNs != 600 || ds[0].BusyNs != 400 || ds[0].TotalNs != 1000 {
		t.Fatalf("wait/busy split wrong: %+v", ds[0])
	}
}

func TestSlowOpAdaptiveArming(t *testing.T) {
	_, th := slowTestThread()
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{}, nil)

	// Disarmed until slowOpMinCount records exist.
	for i := 0; i < slowOpMinCount; i++ {
		if got := c.SlowOpThreshold(OpGet); got != math.MaxInt64 {
			t.Fatalf("adaptive threshold armed after %d records: %d", i, got)
		}
		sp := c.StartOp(th, OpGet)
		th.Clock.Advance(100)
		sp.End()
	}
	thr := c.SlowOpThreshold(OpGet)
	if thr == math.MaxInt64 || thr <= 0 {
		t.Fatalf("adaptive threshold never armed: %d", thr)
	}
	// All samples were 100 ns, so the armed threshold is ~p99*8 = under a
	// thousand ns; an op far outside the distribution must be captured as
	// adaptive.
	sp := c.StartOp(th, OpGet)
	th.Clock.Advance(thr + 1)
	sp.End()
	ds := c.SlowOps()
	if len(ds) != 1 || !ds[0].Adaptive {
		t.Fatalf("adaptive outlier not captured: %+v", ds)
	}
	if bad := VerifySlowOps(ds); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
}

// TestSlowOpRefreshOnSkippedMultiple: two recorders that end the same op
// type between Record and Count both read the later count, so the count the
// refresh sees can step over a period boundary (511, 513). The threshold must
// still arm there, and refresh exactly once per period after that.
func TestSlowOpRefreshOnSkippedMultiple(t *testing.T) {
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{}, nil)
	sl := c.slow.Load()
	for i := 0; i < slowOpMinCount+1; i++ {
		c.hist[OpGet].Record(100)
	}
	for n := int64(1); n < slowOpMinCount; n++ {
		sl.maybeRefresh(c, OpGet, n)
	}
	if got := c.SlowOpThreshold(OpGet); got != math.MaxInt64 {
		t.Fatalf("armed before %d records: %d", slowOpMinCount, got)
	}
	sl.maybeRefresh(c, OpGet, slowOpMinCount+1)
	armed := c.SlowOpThreshold(OpGet)
	if armed == math.MaxInt64 {
		t.Fatal("threshold never armed when the count stepped over the arming point")
	}

	// The same period seen again (the other recorder) does not refresh.
	for i := 0; i < 4*slowOpRefresh; i++ {
		c.hist[OpGet].Record(100_000)
	}
	sl.maybeRefresh(c, OpGet, slowOpMinCount+1)
	if got := c.SlowOpThreshold(OpGet); got != armed {
		t.Fatalf("refreshed twice in one period: %d -> %d", armed, got)
	}
	// Stepping over the next boundary refreshes once.
	next := int64(slowOpMinCount + slowOpRefresh + 1)
	sl.maybeRefresh(c, OpGet, next)
	refreshed := c.SlowOpThreshold(OpGet)
	if refreshed == armed {
		t.Fatal("threshold not refreshed when the count stepped over the next period")
	}
	for i := 0; i < 4*slowOpRefresh; i++ {
		c.hist[OpGet].Record(10_000_000)
	}
	sl.maybeRefresh(c, OpGet, next)
	if got := c.SlowOpThreshold(OpGet); got != refreshed {
		t.Fatalf("refreshed twice in one period: %d -> %d", refreshed, got)
	}
}

func TestSlowOpRingWrapDrops(t *testing.T) {
	_, th := slowTestThread()
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{StaticNs: 10}, nil)

	for i := 0; i < slowOpCapacity+2; i++ {
		sp := c.StartOp(th, OpPut)
		th.Clock.Advance(100)
		sp.End()
	}
	ds := c.SlowOps()
	if len(ds) != slowOpCapacity {
		t.Fatalf("retained = %d, want %d", len(ds), slowOpCapacity)
	}
	// Oldest evicted: surviving seqs are 3..slowOpCapacity+2 in order.
	for i, d := range ds {
		if d.Seq != uint64(i+3) {
			t.Fatalf("ring order wrong: %v", ds)
		}
	}
}

func TestSlowOpEventWindow(t *testing.T) {
	_, th := slowTestThread()
	tr := NewTrace(16)
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{StaticNs: 100, LookbackNs: 50}, tr)
	c.SetSlowOpContext(func() string { return "slowdown" })

	th.Clock.Advance(1000)
	tr.Emit(960, "flush_start", "slot", 1) // inside the 50 ns lookback window
	tr.Emit(500, "memtable_seal")          // before the window: excluded
	sp := c.StartOp(th, OpPut)
	th.Clock.Advance(200)
	tr.Emit(1100, "write_delay", "wait_ns", 80) // during the op
	sp.End()
	tr.Emit(5000, "flush_end") // after the op: excluded

	ds := c.SlowOps()
	if len(ds) != 1 {
		t.Fatalf("dossiers = %d, want 1", len(ds))
	}
	d := ds[0]
	if d.FlowState != "slowdown" {
		t.Fatalf("flow state not stamped: %+v", d)
	}
	if d.WindowStartVNs != d.StartVNs-50 {
		t.Fatalf("lookback window wrong: %+v", d)
	}
	if len(d.Events) != 2 || d.Events[0].Type != "flush_start" || d.Events[1].Type != "write_delay" {
		t.Fatalf("event window wrong: %+v", d.Events)
	}
	for _, ev := range d.Events {
		if ev.Seq != 0 {
			t.Fatalf("event seq not normalized: %+v", ev)
		}
	}
	if d.EventsTruncated {
		t.Fatal("window incorrectly marked truncated")
	}
	if bad := VerifySlowOps(ds); len(bad) != 0 {
		t.Fatalf("verify: %v", bad)
	}
}

func TestSlowOpDisarmedIsInert(t *testing.T) {
	_, th := slowTestThread()
	c := NewCollector()
	if got := c.SlowOpThreshold(OpPut); got != math.MaxInt64 {
		t.Fatalf("disarmed threshold = %d, want MaxInt64", got)
	}
	sp := c.StartOp(th, OpPut)
	th.Clock.Advance(1 << 40)
	sp.End()
	if c.SlowOps() != nil {
		t.Fatal("disarmed collector captured dossiers")
	}
	// Nil collector: every surface is a no-op.
	var nc *Collector
	nc.EnableSlowOps(SlowOpPolicy{StaticNs: 1}, nil)
	nc.SetSlowOpContext(func() string { return "x" })
	if nc.SlowOps() != nil || nc.SlowOpThreshold(OpGet) != math.MaxInt64 {
		t.Fatal("nil collector not inert")
	}
}

func TestSlowOpRearmKeepsDossiers(t *testing.T) {
	_, th := slowTestThread()
	c := NewCollector()
	c.EnableSlowOps(SlowOpPolicy{StaticNs: 10}, nil)
	sp := c.StartOp(th, OpPut)
	th.Clock.Advance(100)
	sp.End()
	// A reopen re-arms with a different policy; existing dossiers survive and
	// the original thresholds stay in force.
	c.EnableSlowOps(SlowOpPolicy{StaticNs: 1 << 60}, nil)
	if len(c.SlowOps()) != 1 {
		t.Fatal("re-arming dropped existing dossiers")
	}
	if got := c.SlowOpThreshold(OpPut); got != 10 {
		t.Fatalf("re-arming replaced thresholds: %d", got)
	}
}

func TestVerifySlowOpsCatchesCorruption(t *testing.T) {
	good := Dossier{
		Seq: 1, Op: "put", StartVNs: 100, EndVNs: 300, WindowStartVNs: 50,
		TotalNs: 200, WaitNs: 50, BusyNs: 150, ThresholdNs: 100,
		Layers: []OpLayer{{Layer: "wal", Ns: 200}},
		Events: []Event{{VNs: 120, Type: "flush_start"}},
	}
	if bad := VerifySlowOps([]Dossier{good}); len(bad) != 0 {
		t.Fatalf("clean dossier flagged: %v", bad)
	}
	cases := []struct {
		name string
		mut  func(*Dossier)
	}{
		{"layer sum over total", func(d *Dossier) { d.Layers[0].Ns = 500 }},
		{"negative wait", func(d *Dossier) { d.WaitNs, d.BusyNs = -1, 201 }},
		{"split mismatch", func(d *Dossier) { d.BusyNs = 100 }},
		{"below threshold", func(d *Dossier) { d.ThresholdNs = 10000 }},
		{"window mismatch", func(d *Dossier) { d.EndVNs = 999 }},
		{"event outside window", func(d *Dossier) { d.Events[0].VNs = 10 }},
	}
	for _, tc := range cases {
		d := good
		d.Layers = []OpLayer{good.Layers[0]}
		d.Events = []Event{good.Events[0]}
		tc.mut(&d)
		if bad := VerifySlowOps([]Dossier{d}); len(bad) == 0 {
			t.Errorf("%s: corruption not detected", tc.name)
		}
	}
}

func TestEventsBetweenTruncation(t *testing.T) {
	tr := NewTrace(4)
	for i := 1; i <= 4; i++ {
		tr.Emit(int64(i*100), "e", "i", i)
	}
	// Unwrapped, all in window, under max: complete.
	evs, trunc := tr.EventsBetween(0, 1000, 10)
	if len(evs) != 4 || trunc {
		t.Fatalf("full window: %d events, trunc=%v", len(evs), trunc)
	}
	// More matches than max: keep the latest, flag truncation.
	evs, trunc = tr.EventsBetween(0, 1000, 2)
	if len(evs) != 2 || !trunc || evs[0].VNs != 300 || evs[1].VNs != 400 {
		t.Fatalf("max-capped window wrong: %+v trunc=%v", evs, trunc)
	}
	// Wrap the ring: events 1-2 dropped; a window reaching below the oldest
	// retained timestamp is incomplete.
	tr.Emit(500, "e", "i", 5)
	tr.Emit(600, "e", "i", 6)
	evs, trunc = tr.EventsBetween(0, 1000, 10)
	if len(evs) != 4 || !trunc {
		t.Fatalf("wrapped window: %d events, trunc=%v", len(evs), trunc)
	}
	// A window entirely above the dropped region is complete again.
	if _, trunc = tr.EventsBetween(400, 1000, 10); trunc {
		t.Fatal("window above dropped region marked truncated")
	}
	// Nil trace and zero max are inert.
	var nt *Trace
	if evs, trunc := nt.EventsBetween(0, 1, 1); evs != nil || trunc {
		t.Fatal("nil trace not inert")
	}
}
