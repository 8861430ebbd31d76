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
	find := func(name string) EngineSpec { s, _ := FindEngine(name); return s }
	single := singleKeyFamily(1, 200)
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
		{cachekv, single, 361, 0x1053a14ba8a50809, 46, FaultFlip, 0xdc978f6aeb51a43c, 23, 16},
		// The two router rows, re-recorded when a cross-shard batch became one
		// batch-log record (one append and one fence, not n+1 and two).
		{sharded, crossShardFamily(1, 60), 360, 0x7ffcca0b5c397021, 100, FaultTorn, 0x6bd94ddda7f9e1f2, 16, 39},
		{sharded, stallFamily(42, 3), 44, 0x95d5621e994f860a, 30, FaultNone, 0xb4c8a64e527c508f, 15, 12},
		// The six baselines, recorded before their two stores became one.
		{find("NoveLSM"), single, 360, 0x87b03e9fdcbf8db5, 100, FaultTorn, 0xc47f0044532a57f5, 54, 26},
		{find("NoveLSM-w/o-flush"), single, 180, 0x8619b7b77de4146a, 100, FaultTorn, 0xfef0805a90293255, 112, 32},
		{find("NoveLSM-cache"), single, 360, 0x87b03e9fdcbf8db5, 100, FaultTorn, 0xc47f0044532a57f5, 54, 26},
		{find("SLM-DB"), single, 720, 0xdacb27b8176cf032, 100, FaultTorn, 0x6dd22ef1d0f34da, 25, 18},
		{find("SLM-DB-w/o-flush"), single, 540, 0xdf6aa72cc7b66774, 100, FaultTorn, 0xb43a179e779b2d7e, 35, 22},
		{find("SLM-DB-cache"), single, 540, 0xdf6aa72cc7b66774, 100, FaultTorn, 0xb43a179e779b2d7e, 35, 22},
	} {
		for _, domain := range bothDomains {
			total, hash, err := Count(g.spec, domain, g.fam)
			if err != nil {
				t.Fatal(err)
			}
			if total != g.total || hash != g.hash {
				t.Errorf("%s/%s/%s: stream changed: (%d, %#x), recorded (%d, %#x)",
					g.fam.Name, g.spec.Name, domain, total, hash, g.total, g.hash)
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
