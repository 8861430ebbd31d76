package obs

import (
	"testing"

	"cachekv/internal/hw"
)

// TestCollectorMergeMatchesSingleStream pins the sharded-collection contract:
// per-shard collectors folded with Merge must be indistinguishable from one
// collector that saw every span — identical totals, identical per-layer
// attribution, identical histograms (counts, extremes and percentiles).
func TestCollectorMergeMatchesSingleStream(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	th := m.NewThread(0)
	single := NewCollector()
	shards := []*Collector{NewCollector(), NewCollector()}

	for i := 0; i < 300; i++ {
		op := Op(i % int(NumOps))
		// Two spans over the same clock interval observe identical deltas, so
		// the single collector and the round-robin shard see the same stream.
		sp1 := single.StartOp(th, op)
		sp2 := shards[i%len(shards)].StartOp(th, op)
		th.InPhase(hw.PhaseIndex, func() { th.Clock.Advance(int64(50 + (i*7)%400)) })
		th.Clock.Advance(int64(i % 13)) // residual lands in the direct layer
		th.Clock.AdvanceTo(th.Clock.Now() + int64(i%5))
		sp2.End()
		sp1.End()
	}

	merged := NewCollector()
	for _, s := range shards {
		merged.Merge(s)
	}
	for op := Op(0); op < NumOps; op++ {
		if got, want := merged.TotalNs(op), single.TotalNs(op); got != want {
			t.Fatalf("%s: merged total %d != single %d", op, got, want)
		}
		for l := 0; l < hw.NumLayers; l++ {
			if got, want := merged.LayerNs(op, l), single.LayerNs(op, l); got != want {
				t.Fatalf("%s/%s: merged layer ns %d != single %d", op, hw.LayerName(l), got, want)
			}
		}
		mh, sh := merged.Hist(op), single.Hist(op)
		if mh.Count() != sh.Count() || mh.Mean() != sh.Mean() || mh.Min() != sh.Min() || mh.Max() != sh.Max() {
			t.Fatalf("%s: merged histogram %v != single %v", op, mh, sh)
		}
		for _, p := range []float64{50, 90, 99, 99.9} {
			if m, s := mh.Percentile(p), sh.Percentile(p); m != s {
				t.Fatalf("%s: merged p%v %f != single %f", op, p, m, s)
			}
		}
	}
}

// TestCollectorMergeDoesNotMoveDossiers: dossiers are capture state tied to
// where the slow op ran, not statistics — Merge must leave them behind.
func TestCollectorMergeDoesNotMoveDossiers(t *testing.T) {
	m := hw.NewMachine(hw.DefaultConfig())
	th := m.NewThread(0)
	src := NewCollector()
	src.EnableSlowOps(SlowOpPolicy{StaticNs: 10}, nil)
	sp := src.StartOp(th, OpPut)
	th.Clock.Advance(100)
	sp.End()
	if len(src.SlowOps()) != 1 {
		t.Fatalf("source dossiers = %d, want 1", len(src.SlowOps()))
	}

	dst := NewCollector()
	dst.Merge(src)
	if len(dst.SlowOps()) != 0 {
		t.Fatalf("Merge moved %d dossiers into the target", len(dst.SlowOps()))
	}
	if len(src.SlowOps()) != 1 {
		t.Fatal("Merge disturbed the source's dossiers")
	}
	if got := dst.TotalNs(OpPut); got != 100 {
		t.Fatalf("merged put total = %d, want 100", got)
	}
}
