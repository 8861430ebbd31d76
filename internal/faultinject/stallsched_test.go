package faultinject

import (
	"testing"

	"cachekv/internal/hw/cache"
)

// TestCrashSweepStall crashes the sharded engine at schedule points spread
// across a scripted overload episode — healthy, Slowdown (token-delayed
// admissions), Stop (rejections, including a cross-shard batch with a stopped
// participant), recovered — and holds every recovery to the oracle's overload
// clauses: rejected writes fully absent, acked writes durable (eADR), batches
// all-or-nothing, engine back in the OK state. Every point runs under all
// three fault modes: a torn crash-point write relaxes nothing, a bit flip
// relaxes durability and batch atomicity only.
func TestCrashSweepStall(t *testing.T) {
	spec, _ := FindEngine(shardedEngineName)
	fam := stallFamily(42, 3)

	for _, domain := range []cache.Domain{cache.EADR, cache.ADR} {
		domain := domain
		t.Run(domain.String(), func(t *testing.T) {
			total, _, err := Count(spec, domain, fam)
			if err != nil {
				t.Fatal(err)
			}
			if total == 0 {
				t.Fatal("workload produced no persistence events")
			}

			// A no-crash run must complete and satisfy the oracle end to end.
			if r := Run(spec, domain, fam, total+1, FaultNone, nil); r.Failed() {
				t.Fatalf("complete run: %v", r.Err())
			}

			points := 24
			if testing.Short() {
				points = 8
			}
			step := total / int64(points)
			if step < 1 {
				step = 1
			}
			for crashAt := int64(1); crashAt <= total; crashAt += step {
				for _, fault := range []Fault{FaultNone, FaultTorn, FaultFlip} {
					r := Run(spec, domain, fam, crashAt, fault, nil)
					if !r.Frozen {
						t.Errorf("crashAt=%d: crash point inside the stream was never reached", crashAt)
					}
					if r.Failed() {
						t.Error(r.Err())
					}
				}
			}
		})
	}
}
