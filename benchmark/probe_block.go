package main

import (
	"bytes"
	"sort"

	"cachekv/internal/block"
	"cachekv/internal/bloom"
)

// block, bloom: building and seeking a 4 KiB data block, and the per-table
// bloom filter a Get consults before it reads one.
func probeBlock(p *probeEnv) {
	n := p.n(200_000)
	keys := probeKeys(4096, p.cfg.seed^0x626c6f636b)
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	value := make([]byte, valueLen)

	b := block.NewBuilder()
	p.set("block.add.host_ns", timeCalls(n, nil, func(i int) {
		if i%len(keys) == 0 || b.EstimatedSize() >= 4096 {
			b.Reset() // keys restart in order, or the block is full
		}
		b.Add(keys[i%len(keys)], value)
	}).hostNs)

	const perBlock = 48 // about 4 KiB of 16+64 B pairs
	b.Reset()
	for _, k := range keys[:perBlock] {
		b.Add(k, value)
	}
	it, err := block.NewIter(b.Finish())
	if p.failed(err) {
		return
	}
	c := timeCalls(n, nil, func(i int) { it.Seek(keys[i%perBlock], bytes.Compare) })
	p.set("block.seek.host_ns", c.hostNs)
	p.set("block.seek.allocs", c.allocs)

	var filter []byte
	rounds := max(n/len(keys), 1)
	p.set("bloom.build_per_key.host_ns", timeCalls(rounds, nil, func(int) {
		filter = bloom.New(10).Build(keys)
	}).hostNs/float64(len(keys)))
	p.set("bloom.may_contain.host_ns", timeCalls(n, nil, func(i int) { bloom.MayContain(filter, keys[i%len(keys)]) }).hostNs)
}
