package main

import "cachekv/internal/wal"

// wal: one 100-byte record, the size of a 2PC prepare entry for a 16+64 B
// pair.
func probeWAL(p *probeEnv) {
	m := p.machine()
	th := m.NewThread(0)
	n := p.n(100_000)
	w := wal.NewWriter(m, m.Alloc("probe.wal", uint64(n)*128+(1<<20), 0), th)
	rec := make([]byte, 100)
	c := timeCalls(n, th.Clock.Now, func(int) {
		_, err := w.Append(th, rec)
		p.failed(err)
	})
	p.set("wal.append100.host_ns", c.hostNs)
	p.set("wal.append100.vns", c.vns)
	p.set("wal.append100.allocs", c.allocs)
}
