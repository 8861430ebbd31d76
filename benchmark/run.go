package main

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"cachekv"
)

// config is one invocation's inputs.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured-phase budget; op counts scale with seconds/runSeconds
	trace    bool
	smoke    bool   // 1/50 of every count, for tests
	outDir   string // where a traced run writes its spans; "" writes nothing
}

// ops scales a measured-phase op count calibrated for runSeconds.
func (c config) ops(n int) int {
	f := c.seconds / runSeconds
	if c.smoke {
		f /= 50
	}
	return max(int(float64(n)*f), 64)
}

// data scales a data-set size: only the smoke scale shrinks it, so the
// data : cache ratios hold whatever --seconds is.
func (c config) data(n int) int {
	if c.smoke {
		n /= 50
	}
	return n
}

// result is what one run reports.
type result struct {
	attempted, failed int64
	failures          []string           // first failure per client, and every violated check
	metrics           map[string]float64 // by catalogue name
	samples           map[string]int     // sample count behind a percentile
	notes             []string
	digest            uint64 // hash of the op stream issued: same seed, same digest
}

func (res *result) correct() bool { return res.failed == 0 && len(res.failures) == 0 }

// run is one workload execution against one store.
type run struct {
	cfg     config
	res     *result
	ks      keyspace
	rng     *rng
	db      *cachekv.DB
	clients []*client
	ver     []uint32 // model: current version per key index, 0 = absent
	sorted  []uint64 // scan: hashes of the live keys, ascending

	t0       time.Time // host time zero for spans
	setupAt  time.Time
	setupSec float64

	// Measured phase.
	windowAt    time.Time // host accounting window: opens with the measured phase
	windowSec   float64   // and closes with it, or after the settle if the phase wrote
	measuredOps int64
	recoveryVNs int64 // virtual time the store spent recovering (counts as elapsed)
	recoveryNs  int64 // host
	recoveries  int
	cpu0, cpu1  time.Duration
	ms0, ms1    runtime.MemStats
	readOnly    bool    // the measured phase issues no writes
	genNsPerOp  float64 // traced runs: host cost of producing an op, without the store
	mediaWriteB int64   // device and user bytes written, as of the settle
	userB       int64
	vMax        int64 // the slowest client's virtual elapsed time
	transient   int64 // Gets that missed a live key and found it on retry

	layers *layerProbe // counters, attribution and trace windows; nil on untraced runs
	phases []phaseSpan
}

// phaseSpan is a parent span: set-up, the measured phase, the settle.
type phaseSpan struct {
	name   string
	h0, h1 int64
}

// dataSeed fixes the key set and the order set-up loads it in, for every
// --seed: all seeds then measure the same store under different request
// streams, and the shape set-up leaves the LSM tree in (which moves write
// amplification and probes per Get by several percent) is not mistaken for
// run-to-run noise. --seed drives every measured-phase choice: which keys,
// in which order, which op.
const dataSeed = 0x63616368656b76

func newRun(cfg config) *run {
	r := &run{
		cfg: cfg,
		res: &result{metrics: map[string]float64{}, samples: map[string]int{}},
		ks:  newKeyspace(dataSeed),
		rng: newRNG(dataSeed),
		t0:  time.Now(),
	}
	if cfg.trace {
		r.layers = &layerProbe{}
	}
	return r
}

func (r *run) hostNow() int64 { return int64(time.Since(r.t0)) }

func (r *run) phase(name string, fn func()) {
	p := phaseSpan{name: name, h0: r.hostNow()}
	fn()
	p.h1 = r.hostNow()
	r.phases = append(r.phases, p)
}

// open starts set-up: it opens the store and one session per client.
func (r *run) open(opts cachekv.Options, clients, keys int) error {
	r.setupAt = time.Now()
	db, err := cachekv.Open(opts)
	if err != nil {
		return fmt.Errorf("open: %w", err)
	}
	r.db = db
	r.ver = make([]uint32, keys+canaryWrites)
	for i := 0; i < clients; i++ {
		r.clients = append(r.clients, &client{r: r, id: i, s: db.Session(i)})
	}
	return nil
}

// reserve sizes a client's latency buffers up front so growing them does not
// show up as allocation or copy noise in the measured phase.
func (c *client) reserve(reads, writes int) {
	c.reads = make([]int64, 0, reads)
	c.writes = make([]int64, 0, writes)
}

// each runs fn once per client, concurrently when there are several.
func (r *run) each(fn func(c *client)) {
	if len(r.clients) == 1 {
		fn(r.clients[0])
		return
	}
	var wg sync.WaitGroup
	for _, c := range r.clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}

// load puts keys [lo, hi) at version 1 in seeded random order; with several
// clients each loads its own residue class, so their virtual clocks advance
// together.
func (r *run) load(lo, hi int) {
	order := permutation(hi-lo, r.rng)
	n := uint32(len(r.clients))
	r.each(func(c *client) {
		for _, i := range order {
			if i%n == uint32(c.id) {
				c.put(uint64(lo)+uint64(i), 1)
			}
		}
	})
}

// loadQuiet loads keys [lo, hi) without a Flush, waiting out the background
// flushes after every quietChunk keys. A chunk is smaller than a sub-MemTable,
// so at most one table is being flushed while the client waits and the client
// never races the flusher for a free slot: set-up then leaves the same memory
// component every time (raced, an 80 k-key load ended with one of two write
// amplifications, 4.2 or 4.5).
func (r *run) loadQuiet(lo, hi int) {
	const quietChunk = 16_000
	for ; lo < hi; lo += quietChunk {
		r.load(lo, min(lo+quietChunk, hi))
		r.quiesce()
	}
}

// loadSettled loads keys [0, n) and flushes, at most settledChunk keys at a
// time. With no more than that between two settles background compaction
// never races the load, so set-up leaves exactly the same tree every time;
// one 600 k-key load instead leaves one of several shapes, which moved
// allocations per Get by 17 % and write amplification by 6 % between runs of
// one binary at one seed.
func (r *run) loadSettled(n int) {
	const settledChunk = 200_000
	for lo := 0; lo < n; lo += settledChunk {
		r.load(lo, min(lo+settledChunk, n))
		r.flush()
	}
}

func (r *run) flush() {
	if err := r.db.Flush(); err != nil {
		r.res.failures = append(r.res.failures, fmt.Sprintf("flush: %v", err))
	}
}

// quiesce waits until every sealed sub-MemTable has been flushed to the
// ImmZone, so that a phase which must not see background work starts without
// any. The lifecycle trace is the only public view of that pipeline.
func (r *run) quiesce() {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		pending := 0
		for _, e := range r.db.Trace().Events() {
			switch e.Type {
			case "memtable_seal":
				pending++
			case "flush_end":
				pending--
			}
		}
		if pending <= 0 {
			return
		}
	}
	r.res.notes = append(r.res.notes, "set-up: background flushes were still running after 5 s")
}

// setupDone ends set-up; readOnly says that the measured phase issues no
// writes. Set-up's own calls are checked but their latencies are not kept: a
// load races the background flusher for free sub-MemTables, so its tail is
// not a property of the store.
func (r *run) setupDone(readOnly bool) {
	r.setupSec = time.Since(r.setupAt).Seconds()
	r.readOnly = readOnly
	r.phases = append(r.phases, phaseSpan{"setup", int64(r.setupAt.Sub(r.t0)), r.hostNow()})
	for _, c := range r.clients {
		c.reads, c.writes = c.reads[:0], c.writes[:0]
	}
}

// rusage reads the process's user+system CPU time and its peak resident set.
func rusage() (cpu time.Duration, peakMiB float64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func (r *run) beginMeasure() {
	runtime.GC() // start every measured phase from a collected heap
	if r.layers != nil {
		r.layers.begin(r)
	}
	for _, c := range r.clients {
		c.measuring = true
		c.vStart = c.s.VirtualNanos()
		c.kinds = [numKinds]kindStats{}
		c.blockStart, c.blockDone, c.blockIdx, c.spanOn = time.Now(), 0, 0, false
	}
	runtime.ReadMemStats(&r.ms0)
	r.cpu0, _ = rusage()
	r.windowAt = time.Now()
	r.phases = append(r.phases, phaseSpan{name: "measured", h0: r.hostNow()})
}

// segment runs one slice of the measured phase.
func (r *run) segment(body func()) {
	before := r.attempted()
	body()
	r.measuredOps += r.attempted() - before
	if r.layers != nil {
		r.layers.poll(r)
	}
}

// measure runs the measured phase as equal segments of total ops; body is
// called per client per segment with that client's share.
func (r *run) measure(total, segments int, body func(c *client, n int)) {
	share := max(total/segments/len(r.clients), 1)
	r.beginMeasure()
	for s := 0; s < segments; s++ {
		r.segment(func() { r.each(func(c *client) { body(c, share) }) })
	}
	r.endMeasure()
}

func (r *run) endMeasure() {
	for _, c := range r.clients {
		if c.blockDone > 0 {
			c.rollBlock()
		}
		c.measuring, c.spanOn = false, false
		c.vElapsed += c.s.VirtualNanos() - c.vStart
	}
	r.phases[len(r.phases)-1].h1 = r.hostNow()
}

// settle drains the store's background debt, so that media_write_amp covers
// all the work the run caused. The host and per-layer accounting windows
// close after it when the measured phase wrote (the debt is the phase's) and
// before it when the phase only read (the settle then flushes set-up data).
func (r *run) settle() {
	if r.readOnly {
		r.closeWindows()
	}
	r.phase("settle", r.flush)
	if !r.readOnly {
		r.closeWindows()
	}
	r.mediaWriteB, r.userB = r.db.Metrics().MediaWriteBytes, r.userBytes()
	if r.readOnly {
		// Every workload reports a write latency. One that only reads puts a
		// few new keys into the settled store once its window has closed: a
		// canary that says whether a read-path change slowed the plain write
		// path, and small enough (half a sub-MemTable) to start no background
		// work.
		c := r.clients[0]
		for i := len(r.ver) - r.cfg.data(canaryWrites); i < len(r.ver); i++ {
			c.put(uint64(i), 1)
		}
	}
}

const canaryWrites = 10_000

func (r *run) closeWindows() {
	r.windowSec = time.Since(r.windowAt).Seconds()
	r.cpu1, _ = rusage()
	runtime.ReadMemStats(&r.ms1)
	if r.layers != nil {
		r.layers.end(r)
	}
}

// crash cuts the power, recovers, and gives every client a session on the
// recovered store.
func (r *run) crash() bool {
	for _, c := range r.clients {
		c.vElapsed += c.s.VirtualNanos() - c.vStart
	}
	if r.layers != nil {
		r.layers.closeWindow(r)
	}
	seq := r.db.Trace().Seq()
	start := time.Now()
	ndb, err := r.db.SimulateCrash()
	r.recoveryNs += int64(time.Since(start))
	if err != nil {
		r.res.failures = append(r.res.failures, fmt.Sprintf("recovery: %v", err))
		return false
	}
	r.db = ndb
	r.recoveries++
	// Recovery time is the span between the trace's recovery_start and
	// recovery_end events (one pair per shard; shards recover one after another).
	var startV int64
	for _, e := range ndb.Trace().Events() {
		if e.Seq <= seq {
			continue
		}
		switch e.Type {
		case "recovery_start":
			startV = e.VNs
		case "recovery_end":
			r.recoveryVNs += e.VNs - startV
		}
	}
	for _, c := range r.clients {
		c.s = ndb.Session(c.id)
		c.vStart = c.s.VirtualNanos()
	}
	if r.layers != nil {
		r.layers.openWindow(r)
	}
	return true
}

func (r *run) attempted() int64 {
	var n int64
	for _, c := range r.clients {
		n += c.attempted
	}
	return n
}

// band returns the mean of the samples ranked in [lo, hi) of sorted. The
// latency statistics reported here are such bands (p50 = ranks 45-55 %,
// p99 = 98.5-99.5 %, p999 = 99.85-99.95 %, tail = the slowest 1 %): on a cost
// model made of discrete charges a plain order statistic is one of a few
// integers; it hides any shift smaller than the gap between them and jumps by
// 20 % when a mass boundary crosses the rank, while a band mean moves with
// the shift.
func band(sorted []int64, lo, hi float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i, j := int(lo*float64(n)), int(hi*float64(n))
	i = min(i, n-1)
	j = min(max(j, i+1), n)
	var sum float64
	for _, v := range sorted[i:j] {
		sum += float64(v)
	}
	return sum / float64(j-i)
}

func p50(sorted []int64) float64  { return band(sorted, 0.45, 0.55) }
func p99(sorted []int64) float64  { return band(sorted, 0.985, 0.995) }
func p999(sorted []int64) float64 { return band(sorted, 0.9985, 0.9995) }
func tail(sorted []int64) float64 { return band(sorted, 0.99, 1) }

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// finish closes the store and turns what the run collected into metrics.
func (r *run) finish() {
	if err := r.db.Close(); err != nil {
		r.res.failures = append(r.res.failures, fmt.Sprintf("close: %v", err))
	}
	res := r.res
	var reads, writes []int64
	for _, c := range r.clients {
		r.transient += c.transient
		res.digest = res.digest*0x100000001b3 ^ c.digest
		res.attempted += c.attempted
		res.failed += c.failed
		if c.firstFailure != "" {
			res.failures = append(res.failures, fmt.Sprintf("client %d: %s", c.id, c.firstFailure))
		}
		reads = append(reads, c.reads...)
		writes = append(writes, c.writes...)
		r.vMax = max(r.vMax, c.vElapsed)
	}
	if transient := r.transient; transient > 0 {
		res.notes = append(res.notes, fmt.Sprintf("%d Get(s) missed a live key during a flush hand-over and found it on retry (a known defect of the engine, see README)", transient))
	}
	slices.Sort(reads)
	slices.Sort(writes)
	if len(reads) == 0 || len(writes) == 0 || r.measuredOps == 0 || r.vMax == 0 {
		res.failures = append(res.failures, fmt.Sprintf(
			"run issued %d reads, %d writes, %d measured ops over %d virtual ns: every workload must have all four",
			len(reads), len(writes), r.measuredOps, r.vMax))
		return
	}
	ops := float64(r.measuredOps)
	if r.cfg.trace {
		r.layers.report(r, reads, writes)
		return
	}
	set := func(name string, v float64, n int) {
		res.metrics[name] = v
		if n > 0 {
			res.samples[name] = n
		}
	}
	set("vkops", ops/float64(r.vMax+r.recoveryVNs)*1e6, 0)
	set("read_vlat_p50_ns", p50(reads), len(reads))
	set("read_vlat_tail_ns", tail(reads), len(reads))
	set("write_vlat_p50_ns", p50(writes), len(writes))
	set("write_vlat_tail_ns", tail(writes), len(writes))
	set("media_write_amp", float64(r.mediaWriteB)/float64(r.userB), 0)
	set("host_allocs_per_op", float64(r.ms1.Mallocs-r.ms0.Mallocs)/ops, 0)
	_, peak := rusage()
	set("host_peak_rss_mb", peak, 0)
	set("setup_s", r.setupSec, 0)
}
