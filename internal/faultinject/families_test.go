package faultinject

import (
	"reflect"
	"testing"

	"cachekv/internal/hw/cache"
)

// TestFamilyStreamsUnchanged pins the one runner to the three harnesses it
// replaced. The event totals, stream hashes and replay outcomes below were
// recorded with the per-family counters and runners at the commit before
// they were merged; each family's canonical script must still number the
// same events in the same order, and a (family, crashAt, fault) tuple must
// replay to the recorded crash frontier — twice, identically.
func TestFamilyStreamsUnchanged(t *testing.T) {
	cachekv, _ := FindEngine("cachekv")
	sharded, _ := FindEngine(shardedEngineName)
	for _, g := range []struct {
		spec  EngineSpec
		fam   Family
		total int64
		hash  uint64
		// One in-stream replay under eADR, recorded at the same commit.
		crashAt   int64
		fault     Fault
		replay    uint64
		inflight  int
		recovered int
	}{
		{cachekv, singleKeyFamily(1, 200), 361, 0x1053a14ba8a50809, 46, FaultFlip, 0xdc978f6aeb51a43c, 23, 16},
		{sharded, crossShardFamily(1, 60), 508, 0x5f305512d667095a, 100, FaultTorn, 0x63b055b6734e0a0e, 11, 30},
		{sharded, stallFamily(42, 3), 48, 0x123358a391a74730, 30, FaultNone, 0x7ecd871eed8391c6, 13, 11},
	} {
		for _, domain := range bothDomains {
			total, hash, err := Count(g.spec, domain, g.fam)
			if err != nil {
				t.Fatal(err)
			}
			if total != g.total || hash != g.hash {
				t.Errorf("%s/%s: stream changed: (%d, %#x), recorded (%d, %#x)",
					g.fam.Name, domain, total, hash, g.total, g.hash)
			}
		}
		a := Run(g.spec, cache.EADR, g.fam, g.crashAt, g.fault, nil)
		b := Run(g.spec, cache.EADR, g.fam, g.crashAt, g.fault, nil)
		if err := a.Err(); err != nil {
			t.Error(err)
		}
		if a.StreamHash != g.replay || a.Inflight != g.inflight || len(a.Recovered) != g.recovered {
			t.Errorf("{%s}: replay changed: hash %#x inflight %d recovered %d, recorded %#x/%d/%d",
				a.Schedule, a.StreamHash, a.Inflight, len(a.Recovered), g.replay, g.inflight, g.recovered)
		}
		if a.StreamHash != b.StreamHash || a.Inflight != b.Inflight || !reflect.DeepEqual(a.Recovered, b.Recovered) {
			t.Errorf("{%s}: two replays of one tuple diverged", a.Schedule)
		}
	}
}
