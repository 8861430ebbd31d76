package main

import "cachekv/internal/memfilter"

// memfilter: one add per Put, one probe per table a Get considers.
func probeMemfilter(p *probeEnv) {
	n := p.n(200_000)
	keys := probeKeys(n, p.cfg.seed^0x6d66)
	f := memfilter.New(n, 10)
	p.set("memfilter.add.host_ns", timeCalls(n, nil, func(i int) { f.Add(keys[i]) }).hostNs)
	p.set("memfilter.may_contain.host_ns", timeCalls(n, nil, func(i int) { f.MayContain(keys[i]) }).hostNs)
}
