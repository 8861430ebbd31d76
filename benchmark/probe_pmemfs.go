package main

import "cachekv/internal/pmemfs"

// pmemfs: the 4 KiB append SSTable builds are made of, and the 4 KiB read a
// block-cache miss costs.
func probePMemFS(p *probeEnv) {
	m := p.machine()
	th := m.NewThread(0)
	n := p.n(8_000)
	size := uint64(n) * 4096
	fs, err := pmemfs.Mount(m, m.Alloc("probe.pmemfs", size+(8<<20), 0), th)
	if p.failed(err) {
		return
	}
	w, err := fs.Create(th, "probe", size)
	if p.failed(err) {
		return
	}
	page := make([]byte, 4096)
	c := timeCalls(n, th.Clock.Now, func(int) {
		p.failed(w.Append(th, page))
	})
	p.set("pmemfs.append4k.host_ns", c.hostNs)
	p.set("pmemfs.append4k.vns", c.vns)
	if err := w.Finish(th); p.failed(err) {
		return
	}
	f, err := fs.Open("probe")
	if p.failed(err) {
		return
	}
	g := newRNG(p.cfg.seed ^ 0x6673)
	c = timeCalls(n, th.Clock.Now, func(int) {
		p.failed(f.ReadAt(th, g.intn(uint64(n))*4096, page))
	})
	p.set("pmemfs.readat4k.host_ns", c.hostNs)
	p.set("pmemfs.readat4k.vns", c.vns)
}
