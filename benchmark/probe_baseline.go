package main

import (
	"math"

	"cachekv"
)

// paperFillSpeedup is the paper's Exp#1 headline: CacheKV's random-fill
// throughput over NoveLSM's.
const paperFillSpeedup = 5.1

// baseline: the same small fill on NoveLSM and on CacheKV. The model is
// validated only against the paper's ratios, so a change that moves vkops on
// fill and this ratio with it has changed the model, not optimised the store.
func probeBaseline(p *probeEnv) {
	n := p.n(100_000)
	fill := func(engine cachekv.Engine) float64 {
		opts := baseOptions
		opts.Engine = engine
		db, err := cachekv.Open(opts)
		if p.failed(err) {
			return 0
		}
		defer db.Close()
		s := db.Session(0)
		ks := newKeyspace(p.cfg.seed ^ 0x62617365)
		var kbuf [keyLen]byte
		var vbuf [valueLen]byte
		v0 := s.VirtualNanos()
		for i := 0; i < n; i++ {
			h := ks.hash(uint64(i))
			p.failed(s.Put(putKey(kbuf[:], h), putValue(vbuf[:], h, 1)))
		}
		return float64(n) / float64(s.VirtualNanos()-v0) * 1e6
	}
	novelsm, ours := fill(cachekv.EngineNoveLSM), fill(cachekv.EngineCacheKV)
	x := ratio(ours, novelsm)
	p.set("baseline.novelsm.fill_vkops", novelsm)
	p.set("fidelity.fill_speedup_x", x)
	p.set("fidelity.fill_speedup_err", math.Abs(x-paperFillSpeedup)/paperFillSpeedup)
}
