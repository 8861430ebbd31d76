package main

import "cachekv/internal/hw/sim"

// hw.sim: every modelled cost ends in a clock advance, and every modelled
// lock in a VMutex pair.
func probeSim(p *probeEnv) {
	var clk sim.Clock
	p.set("sim.clock_advance.host_ns", timeCalls(p.n(2_000_000), nil, func(int) { clk.Advance(1) }).hostNs)
	mu := sim.NewVMutex(sim.DefaultCosts())
	p.set("sim.vmutex_pair.host_ns", timeCalls(p.n(1_000_000), nil, func(int) {
		mu.Lock(&clk)
		mu.Unlock(&clk)
	}).hostNs)
}
