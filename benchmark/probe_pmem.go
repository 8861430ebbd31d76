package main

import (
	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// hw.pmem: the XPBuffer's two regimes (sequential lines combine, random lines
// evict with read-modify-write) and the 256 B media read.
func probePMem(p *probeEnv) {
	const size = 256 << 20
	dev := pmem.NewDevice(size, nil)
	var clk sim.Clock
	line := make([]byte, 64)
	g := newRNG(p.cfg.seed ^ 0x706d656d)
	n := p.n(200_000)

	c := timeCalls(n, clk.Now, func(i int) { dev.WriteLines(&clk, uint64(i)*64, line) })
	p.set("pmem.write_seq64.host_ns", c.hostNs)
	p.set("pmem.write_seq64.vns", c.vns)

	c = timeCalls(n, clk.Now, func(int) { dev.WriteLines(&clk, g.intn(size/64)*64, line) })
	p.set("pmem.write_rand64.vns", c.vns)

	xp := make([]byte, 256)
	c = timeCalls(n, clk.Now, func(int) { dev.Read(&clk, g.intn(size/256)*256, xp) })
	p.set("pmem.read256.host_ns", c.hostNs)
	p.set("pmem.read256.vns", c.vns)
}
