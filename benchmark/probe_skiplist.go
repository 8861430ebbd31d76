package main

import (
	"cachekv/internal/arena"
	"cachekv/internal/hw"
	"cachekv/internal/skiplist"
)

// skiplist, arena: the DRAM index every sub-MemTable and ImmZone table is
// searched through, and the bump allocator behind the ImmZone.
func probeSkiplist(p *probeEnv) {
	n := p.n(100_000)
	keys := probeKeys(n, p.cfg.seed^0x736b6970)
	value := make([]byte, valueLen)
	l := skiplist.New(nil, 1)
	c := timeCalls(n, nil, func(i int) { l.Insert(keys[i], value, nil) })
	p.set("skiplist.insert.host_ns", c.hostNs)
	p.set("skiplist.insert.allocs", c.allocs)
	p.set("skiplist.get.host_ns", timeCalls(n, nil, func(i int) { l.Get(keys[i], nil) }).hostNs)
	it := l.NewIterator()
	it.SeekToFirst()
	p.set("skiplist.next.host_ns", timeCalls(n-1, nil, func(int) { it.Next() }).hostNs)

	a := arena.NewPArena(hw.Region{Name: "probe.arena", Addr: 4096, Size: uint64(n) * 128})
	p.set("arena.alloc.host_ns", timeCalls(n, nil, func(int) {
		_, err := a.Alloc(96, 8)
		p.failed(err)
	}).hostNs)
}
