package main

import (
	"errors"
	"time"

	"cachekv"
	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

// obs, histogram, util: what every public call pays for being observed, and
// the two helpers on every write's path.
func probeObs(p *probeEnv) {
	n := p.n(1_000_000)
	m := hw.NewMachine(hw.Config{PMemBytes: 1 << 20}) // spans touch no memory: the smallest platform does
	m.EnableObs()
	th := m.NewThread(0)
	col := obs.NewCollector()
	p.set("obs.span_pair.host_ns", timeCalls(n, nil, func(int) { col.StartOp(th, obs.OpPut).End() }).hostNs)

	h := histogram.New()
	p.set("histogram.record.host_ns", timeCalls(n, nil, func(i int) { h.Record(int64(i)) }).hostNs)

	key := probeKeys(1, p.cfg.seed)[0]
	var sink uint64
	p.set("util.hash64.host_ns", timeCalls(n, nil, func(int) { sink += util.Hash64(key) }).hostNs)
	var ikey util.InternalKey
	p.set("util.ikey_encode.host_ns", timeCalls(n, nil, func(i int) {
		ikey = util.MakeInternalKey(ikey, key, uint64(i), util.KindValue)
	}).hostNs)
	_ = sink

	// The same loop against a store with observability off and on.
	loop := func(disable bool) time.Duration {
		opts := baseOptions
		opts.DisableObs = disable
		db, err := cachekv.Open(opts)
		if p.failed(err) {
			return 0
		}
		defer db.Close()
		s := db.Session(0)
		ops := p.n(25_000)
		ks := newKeyspace(p.cfg.seed ^ 0x6f6273)
		var kbuf [keyLen]byte
		var vbuf [valueLen]byte
		start := time.Now()
		for i := 0; i < ops; i++ {
			hh := ks.hash(uint64(i))
			p.failed(s.Put(putKey(kbuf[:], hh), putValue(vbuf[:], hh, 1)))
		}
		for i := 0; i < ops; i++ {
			// Not-found is tolerated: this loop times calls, it does not check
			// them, and a Get may miss during a flush hand-over (README).
			if _, err := s.Get(putKey(kbuf[:], ks.hash(uint64(i)))); !errors.Is(err, cachekv.ErrNotFound) {
				p.failed(err)
			}
		}
		return time.Since(start)
	}
	// The two sides alternate and each is represented by its fastest round:
	// interference on a shared box only ever slows a round down.
	off, on := loop(true), loop(false)
	for rep := 0; rep < 2; rep++ {
		off, on = min(off, loop(true)), min(on, loop(false))
	}
	p.set("obs.on_vs_off.host_frac", ratio(float64(on), float64(off))-1)
}
