package main

import (
	"bytes"
	"errors"
	"sort"

	"cachekv/internal/blockcache"
	"cachekv/internal/pmemfs"
	"cachekv/internal/sstable"
	"cachekv/internal/util"
)

// sstable: building a table, a point lookup with its data block in the block
// cache and without one, and the iterator step scans and compactions are made
// of.
func probeSSTable(p *probeEnv) {
	m := p.machine()
	th := m.NewThread(0)
	n := p.n(20_000)
	keys := probeKeys(n, p.cfg.seed^0x737374)
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	ikeys := make([]util.InternalKey, n)
	for i, k := range keys {
		ikeys[i] = util.MakeInternalKey(nil, k, uint64(i+1), util.KindValue)
	}
	value := make([]byte, valueLen)

	size := uint64(n)*128 + (1 << 20)
	fs, err := pmemfs.Mount(m, m.Alloc("probe.sstable", size+(8<<20), 0), th)
	if p.failed(err) {
		return
	}
	fw, err := fs.Create(th, "probe.sst", size)
	if p.failed(err) {
		return
	}
	w := sstable.NewWriter(fw, th)
	p.set("sstable.add.host_ns", timeCalls(n, nil, func(i int) {
		p.failed(w.Add(ikeys[i], value))
	}).hostNs)
	if _, _, _, err := w.Finish(); p.failed(err) {
		return
	}
	f, err := fs.Open("probe.sst")
	if p.failed(err) {
		return
	}
	r, err := sstable.NewReader(f, th)
	if p.failed(err) {
		return
	}
	g := newRNG(p.cfg.seed ^ 0x676574)
	get := func(int) {
		_, _, _, found, err := r.Get(th, ikeys[g.intn(uint64(n))])
		if p.failed(err); !found {
			p.failed(errors.New("sstable probe: a stored key was not found"))
		}
	}
	c := timeCalls(n, th.Clock.Now, get)
	p.set("sstable.get_uncached.host_ns", c.hostNs)
	p.set("sstable.get_uncached.vns", c.vns)
	p.set("sstable.get_uncached.allocs", c.allocs)

	r.SetCache(blockcache.New(int64(size)*2, 16), 1) // holds the whole table
	timeCalls(n, nil, get)                           // warm it
	c = timeCalls(n, th.Clock.Now, get)
	p.set("sstable.get_cached.host_ns", c.hostNs)
	p.set("sstable.get_cached.vns", c.vns)
	p.set("sstable.get_cached.allocs", c.allocs)

	it, err := r.NewIter(th)
	if p.failed(err) {
		return
	}
	it.SeekToFirst()
	p.set("sstable.iter_next.host_ns", timeCalls(n-1, nil, func(int) { it.Next() }).hostNs)
	if err := it.Err(); p.failed(err) {
		return
	}
}
