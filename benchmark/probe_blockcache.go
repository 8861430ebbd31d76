package main

import (
	"errors"

	"cachekv/internal/blockcache"
)

// blockcache: inserting a 4 KiB block (with the eviction that makes room for
// it) and hitting one.
func probeBlockcache(p *probeEnv) {
	n := p.n(100_000)
	c := blockcache.New(8<<20, 16) // the engine's default size and sharding
	blk := make([]byte, 4096)
	p.set("blockcache.put.host_ns", timeCalls(n, nil, func(i int) {
		c.Put(blockcache.Key{File: 1, Offset: uint64(i) * 4096}, blk)
	}).hostNs)
	const resident = 1024 // the last 4 MiB inserted are still cached
	p.set("blockcache.get_hit.host_ns", timeCalls(n, nil, func(i int) {
		if _, ok := c.Get(blockcache.Key{File: 1, Offset: uint64(n-1-i%min(resident, n)) * 4096}); !ok {
			p.failed(errors.New("blockcache probe: a block just inserted is not cached"))
		}
	}).hostNs)
}
