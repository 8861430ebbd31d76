package main

import "cachekv/internal/hw/cache"

// hw.cache: a store and a load that hit, a load that misses to the media, and
// the 4 KiB non-temporal write every file append is made of.
func probeLLC(p *probeEnv) {
	m := p.machine()
	th := m.NewThread(0)
	llc := m.Cache
	line := make([]byte, 64)
	n := p.n(200_000)

	hot := m.Alloc("probe.llc.hot", 256<<10, 0) // fits the LLC many times over
	lines := hot.Size / 64
	for i := uint64(0); i < lines; i++ {
		llc.Write(th.Clock, hot.Addr+i*64, line, cache.DefaultPartition)
	}
	c := timeCalls(n, th.Clock.Now, func(i int) {
		llc.Write(th.Clock, hot.Addr+uint64(i)%lines*64, line, cache.DefaultPartition)
	})
	p.set("llc.write64_hit.host_ns", c.hostNs)
	p.set("llc.write64_hit.vns", c.vns)
	c = timeCalls(n, th.Clock.Now, func(i int) {
		llc.Read(th.Clock, hot.Addr+uint64(i)%lines*64, line, cache.DefaultPartition)
	})
	p.set("llc.read64_hit.host_ns", c.hostNs)
	p.set("llc.read64_hit.vns", c.vns)

	// Lines never touched before: each read misses and fills from the media.
	miss := p.n(50_000)
	cold := m.Alloc("probe.llc.cold", uint64(miss)*4096, 0)
	c = timeCalls(miss, th.Clock.Now, func(i int) {
		llc.Read(th.Clock, cold.Addr+uint64(i)*4096, line, cache.DefaultPartition)
	})
	p.set("llc.read64_miss.host_ns", c.hostNs)
	p.set("llc.read64_miss.vns", c.vns)

	nt := p.n(10_000)
	stream := m.Alloc("probe.llc.stream", uint64(nt)*4096, 0)
	page := make([]byte, 4096)
	c = timeCalls(nt, th.Clock.Now, func(i int) { llc.NTWrite(th.Clock, stream.Addr+uint64(i)*4096, page) })
	p.set("llc.ntwrite4k.host_ns", c.hostNs)
	p.set("llc.ntwrite4k.vns", c.vns)
}
