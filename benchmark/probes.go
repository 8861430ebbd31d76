package main

import (
	"fmt"
	"runtime"
	"time"

	"cachekv/internal/hw"
)

// Probes price one layer's primitives from outside: short loops over a
// layer's public functions on a private platform, reported per call in host
// ns, virtual ns and allocations. They ride every traced run so that the cost
// of a primitive sits beside the workload number it should explain. Each
// layer's probe lives in its own probe_<layer>.go and binds to as few of the
// layer's symbols as it can; README.md lists them as the frozen surface.

type probeEnv struct {
	cfg config
	set func(name string, v float64)
	m   *hw.Machine // shared by the probes that need a platform; built on first use
	err error       // the first thing a layer refused to do
}

// failed records err and reports whether there was one.
func (p *probeEnv) failed(err error) bool {
	if err != nil && p.err == nil {
		p.err = err
	}
	return err != nil
}

// n scales a probe's iteration count.
func (p *probeEnv) n(base int) int {
	if p.cfg.smoke {
		base /= 50
	}
	return max(base, 16)
}

// machine returns the probes' private platform: the default LLC and cost
// model over a small PMem.
func (p *probeEnv) machine() *hw.Machine {
	if p.m == nil {
		cfg := hw.DefaultConfig()
		cfg.PMemBytes = 1 << 30
		p.m = hw.NewMachine(cfg)
	}
	return p.m
}

// cost is what one call of a primitive costs.
type cost struct{ hostNs, vns, allocs float64 }

// timeCalls runs fn n times; clock, when not nil, reads the virtual clock the
// calls advance.
func timeCalls(n int, clock func() int64, fn func(i int)) cost {
	var ms0, ms1 runtime.MemStats
	var v0 int64
	runtime.ReadMemStats(&ms0)
	if clock != nil {
		v0 = clock()
	}
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(start)
	c := cost{hostNs: float64(el) / float64(n)}
	if clock != nil {
		c.vns = float64(clock()-v0) / float64(n)
	}
	runtime.ReadMemStats(&ms1)
	c.allocs = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	return c
}

// probeKeys returns n distinct 16-byte keys in seeded random order.
func probeKeys(n int, seed uint64) [][]byte {
	ks := newKeyspace(seed)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = putKey(make([]byte, keyLen), ks.hash(uint64(i)))
	}
	return keys
}

func runProbes(cfg config, set func(name string, v float64)) error {
	p := &probeEnv{cfg: cfg, set: set}
	for _, probe := range []struct {
		layer string
		run   func(*probeEnv)
	}{
		{"hw.sim", probeSim}, {"hw.pmem", probePMem}, {"hw.cache", probeLLC}, {"pmemfs", probePMemFS},
		{"wal", probeWAL}, {"skiplist", probeSkiplist}, {"memfilter", probeMemfilter}, {"block", probeBlock},
		{"blockcache", probeBlockcache}, {"sstable", probeSSTable}, {"obs", probeObs}, {"baseline", probeBaseline},
	} {
		probe.run(p)
		if p.err != nil {
			return fmt.Errorf("%s: %w", probe.layer, p.err)
		}
	}
	return nil
}
