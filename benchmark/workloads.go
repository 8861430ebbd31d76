package main

import (
	"fmt"
	"slices"

	"cachekv"
)

// workload is one set of inputs. Every store is opened with default Options
// except one background compaction worker (the only shape whose virtual
// schedule repeats run to run) and, on mixed, two shards.
type workload struct {
	name string
	why  string
	run  func(r *run) error
}

var workloads = []workload{
	{"fill", "Paper Exp#1: unique random-order Puts of 5x the 12 MiB pool, so flush, spill and compaction all cycle; the read path is idle.", runFill},
	{"read-mem", "Zipfian Gets on 8 MB that stays in the sub-MemTable pool and ImmZone: index, filters and LLC hits work, the LSM tree and block cache do not.", runReadMem},
	{"read-big", "Uniform Gets on 60 MB of flushed SSTables against an 8 MiB block cache and 36 MB LLC: level walk, blooms, block reads and media reads dominate.", runReadBig},
	{"mixed", "Two clients on the two-shard engine, zipfian 50% Get, 45% Put, 5% four-key atomic batch: group commit, 2PC, lock contention and compaction under reads.", runMixed},
	{"scan", "Only range workload: 50-row Scans from zipfian start keys over flushed data plus a live memtable; merging iterators work, point-read shortcuts do not.", runScan},
	{"crash-recover", "Paper III-E: three rounds of unflushed Put, Delete, batch and Get, a power cut, then a Get of every key; acked writes must survive in the persistent cache.", runCrashRecover},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

var baseOptions = cachekv.Options{CompactionWorkers: 1}

// The measured phase runs as this many equal slices; between them a traced
// run drains the lifecycle trace and samples the LSM levels.
const segments = 10

// Sizes below are the issue's counts times 0.6 (read-mem's data set, which
// must fit the 12 MiB pool, is kept), so that a run's measured phase takes
// about runSeconds on two cores and the whole set of runs fits its cap.

func runFill(r *run) error {
	warm := r.cfg.data(120_000)
	n := r.cfg.ops(780_000)
	readBack := r.cfg.ops(12_000)
	if err := r.open(baseOptions, 1, warm+n); err != nil {
		return err
	}
	c := r.clients[0]
	c.reserve(readBack, warm+n)
	r.loadQuiet(0, warm) // warm-up: the pool has grown and the ImmZone holds tables
	order := permutation(n, r.rng)
	r.setupDone(false)

	next := 0
	body := func(c *client, k int) {
		for ; k > 0; k-- {
			c.put(uint64(warm)+uint64(order[next%n]), 1)
			next++
		}
	}
	r.measure(n, segments, body)
	r.settle()
	written := next
	r.genCost(n, body)
	// Read a sample of what was written back from the settled store: the
	// check that the fill is correct, and this workload's read class.
	g := newRNG(r.cfg.seed ^ 0x72656164)
	for i := 0; i < readBack; i++ {
		c.get(uint64(warm)+uint64(order[g.intn(uint64(written))]), 1)
	}
	return nil
}

func runReadMem(r *run) error {
	n := r.cfg.data(80_000)
	ops := r.cfg.ops(1_200_000)
	if err := r.open(baseOptions, 1, n); err != nil {
		return err
	}
	r.clients[0].reserve(ops, n)
	r.loadQuiet(0, n) // no Flush: everything stays in the memory component
	z := newZipf(uint64(n), 0.99)
	g := newRNG(r.cfg.seed ^ 0x6d656d)
	r.setupDone(true)

	body := func(c *client, k int) {
		for ; k > 0; k-- {
			if g.intn(20) == 0 {
				c.get(uint64(n)+g.intn(uint64(n)), wantAbsent) // indices past n were never loaded
			} else {
				c.get(z.item(g), 1)
			}
		}
	}
	r.measure(ops, segments, body)
	r.settle()
	r.genCost(ops, body)
	return nil
}

func runReadBig(r *run) error {
	n := r.cfg.data(600_000)
	ops := r.cfg.ops(240_000)
	if err := r.open(baseOptions, 1, n); err != nil {
		return err
	}
	r.clients[0].reserve(ops, n)
	r.loadSettled(n)
	g := newRNG(r.cfg.seed ^ 0x626967)
	r.setupDone(true)

	body := func(c *client, k int) {
		for ; k > 0; k-- {
			c.get(g.intn(uint64(n)), 1)
		}
	}
	r.measure(ops, segments, body)
	r.settle()
	r.genCost(ops, body)
	return nil
}

func runMixed(r *run) error {
	const nClients = 2
	n := r.cfg.data(240_000)
	ops := r.cfg.ops(360_000)
	opts := baseOptions
	opts.Shards = 2
	if err := r.open(opts, nClients, n); err != nil {
		return err
	}
	z := newZipf(uint64(n), 0.99)
	gens := make([]*rng, nClients)
	vers := make([]uint32, nClients)
	for _, c := range r.clients {
		c.reserve(ops, n)
		gens[c.id] = newRNG(r.cfg.seed ^ 0x6d6978 ^ uint64(c.id)<<32)
		vers[c.id] = 1
	}
	r.loadSettled(n)
	r.setupDone(false)

	// own maps a drawn key to the client's residue class: a client is the
	// only writer of its class, so it knows the exact version a Get of one of
	// its own keys must return.
	own := func(c *client, idx uint64) uint64 {
		idx = idx - idx%nClients + uint64(c.id)
		if idx >= uint64(n) {
			idx -= nClients
		}
		return idx
	}
	var batchIdx [nClients][keysPerApply]uint64
	body := func(c *client, k int) {
		g := gens[c.id]
		for ; k > 0; k-- {
			switch p := g.intn(100); {
			case p < 50:
				if idx := z.item(g); idx%nClients == uint64(c.id) {
					c.get(idx, int64(r.ver[idx]))
				} else {
					c.get(idx, wantAny)
				}
			case p < 95:
				vers[c.id]++
				c.put(own(c, z.item(g)), vers[c.id])
			default:
				vers[c.id]++
				b := batchIdx[c.id][:]
				for i := range b {
					b[i] = own(c, z.item(g))
				}
				c.apply(b, vers[c.id])
			}
		}
	}
	r.measure(ops, segments, body)
	r.settle()
	r.genCost(ops, body)
	return nil
}

func runScan(r *run) error {
	const rows = 50
	n := r.cfg.data(240_000)
	extra := r.cfg.data(18_000)
	ops := r.cfg.ops(60_000)
	if err := r.open(baseOptions, 1, n+extra); err != nil {
		return err
	}
	r.clients[0].reserve(ops, n+extra)
	r.loadSettled(n)
	r.loadQuiet(n, n+extra) // stays in the pool: scans merge the memtable with the tree
	r.sorted = make([]uint64, n+extra)
	for i := range r.sorted {
		r.sorted[i] = r.ks.hash(uint64(i))
	}
	slices.Sort(r.sorted)
	z := newZipf(uint64(n+extra), 0.99)
	g := newRNG(r.cfg.seed ^ 0x7363616e)
	r.setupDone(true)

	body := func(c *client, k int) {
		for ; k > 0; k-- {
			c.scan(z.item(g), rows)
		}
	}
	r.measure(ops, segments, body)
	r.settle()
	r.genCost(ops, body)
	return nil
}

func runCrashRecover(r *run) error {
	const rounds = 3
	// Preload plus three rounds write about 17 MB: well under the 24 MiB at
	// which the ImmZone spills, so every round recovers from the persistent
	// cache and the ImmZone alone, whatever the seed.
	keys := r.cfg.data(50_000)
	ops := r.cfg.ops(30_000) // per round
	if err := r.open(baseOptions, 1, keys); err != nil {
		return err
	}
	c := r.clients[0]
	c.reserve(rounds*(ops/10+keys)+ops, keys+rounds*ops)
	r.loadQuiet(0, keys) // every key exists before the first round; nothing is flushed
	g := newRNG(r.cfg.seed ^ 0x6372617368)
	r.setupDone(false)

	ver := uint32(1)
	var b [keysPerApply]uint64
	body := func(c *client, k int) {
		for ; k > 0; k-- {
			idx := g.intn(uint64(keys))
			switch p := g.intn(10); {
			case p < 7:
				ver++
				c.put(idx, ver)
			case p < 8:
				c.delete(idx)
			case p < 9:
				ver++
				for i := range b {
					b[i] = g.intn(uint64(keys))
				}
				c.apply(b[:], ver)
			default:
				c.get(idx, r.want(idx))
			}
		}
	}
	const slices = 2 // per round, of the ops and of the check
	r.beginMeasure()
	for round := 0; round < rounds; round++ {
		for s := 0; s < slices; s++ {
			r.segment(func() { body(c, ops/slices) })
		}
		if !r.crash() {
			return fmt.Errorf("round %d: the store did not recover", round)
		}
		for s := 0; s < slices; s++ {
			r.segment(func() {
				for idx := s * keys / slices; idx < (s+1)*keys/slices; idx++ {
					c.get(uint64(idx), r.want(uint64(idx)))
				}
			})
		}
	}
	r.endMeasure()
	r.settle()
	r.genCost(rounds*ops, body)
	return nil
}

// want is the model's answer for key idx.
func (r *run) want(idx uint64) int64 {
	if v := r.ver[idx]; v != 0 {
		return int64(v)
	}
	return wantAbsent
}
