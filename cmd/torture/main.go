// Command torture drives the sharded engine into sustained overload on a
// degraded platform — PMem latency multiplied, the flush path throttled — and
// holds the write-path flow control to its protection oracle:
//
//   - bounded memory: flush backlog plus L0 bytes never exceed the cap while
//     flow control is on;
//   - bounded waits: no acknowledged write's latency exceeds its deadline
//     plus the commit envelope (stalled writes fail fast with ErrStalled
//     instead of waiting);
//   - bounded tails: the flow-controlled engine's p99.9 write latency stays
//     within the envelope where the no-flow-control baseline diverges;
//   - observability: the run's obs report passes Verify (per-op layer
//     attribution stays consistent even for delayed and rejected writes);
//   - crash-mid-stall: a power failure while the engine is throttled
//     recovers to a clean OK state with every acknowledged write intact
//     (eADR) and every rejected write absent.
//
// Each leg prints a one-line summary; the verdict is "torture: PASS" or one
// VIOLATION line per failed clause and exit status 1.
//
// Usage:
//
//	torture [-smoke] [-compaction-workers N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"cachekv/internal/bench"
	"cachekv/internal/core"
	"cachekv/internal/faultinject"
	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

type config struct {
	Shards       int
	Threads      int
	Records      int64
	Ops          int64
	ValueSize    int
	DeadlineNs   int64
	EnvelopeNs   int64
	SlowMult     int
	FlushPauseNs int64
	MemCapBytes  uint64
	// CompactWorkers sizes each shard's background compaction scheduler
	// (0 = the default, one worker).
	CompactWorkers int
	Divergence     float64
	Seed           uint64
}

// legResult is what the oracle and the printed summary need of one leg.
type legResult struct {
	AckedWrites      int64
	StalledWrites    int64
	WriteP999        float64
	WriteMax         int64
	DeadlineOverruns int64
	PeakFootprint    uint64
	Flow             core.FlowStats
	VerifyViolations []string
	SlowOps          []obs.Dossier
}

type crashResult struct {
	EnteredStall bool
	StateAtCrash string
	AckedKeys    int
	RejectedKeys int
	Violations   []string
}

// slowMachine builds the degraded platform: every PMem media cost multiplied,
// each background flush job delayed.
func slowMachine(c config) *hw.Machine {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	cfg.Costs = faultinject.SlowDevice{
		PMemLatencyMult: c.SlowMult,
		FlushPauseNs:    c.FlushPauseNs,
	}.Apply(sim.DefaultCosts())
	m := hw.NewMachine(cfg)
	m.EnableObs()
	return m
}

// engineOptions shapes a store small enough that the scripted op count
// genuinely outruns the throttled flush pipeline.
func engineOptions(shards int, disableFlow bool, tr *obs.Trace, compactWorkers int) core.Options {
	o := core.DefaultOptions()
	o.Shards = shards
	o.FSBytes = 256 << 20
	o.PoolBytes = 4 << 20
	o.SubMemTableBytes = 256 << 10
	o.ImmZoneBytes = 8 << 20
	o.FlushThreads = 1
	o.DisableFlowControl = disableFlow
	o.CompactionWorkers = compactWorkers
	o.Trace = tr
	return o
}

// defaultMemCap derives the bounded-footprint cap from the engine shape: the
// whole ImmZone and pool may be in flight, plus the L0 debt flow control
// tolerates before Stop (4x the compaction trigger per shard, two files of
// slack each; an L0 file is one flushed sub-MemTable).
func defaultMemCap(shards int) uint64 {
	o := engineOptions(shards, false, nil, 0)
	trigger := o.LSM.L0CompactionTrigger
	if trigger <= 0 {
		trigger = 4
	}
	l0 := uint64(shards) * uint64(4*trigger+2) * o.SubMemTableBytes
	return o.ImmZoneBytes + o.PoolBytes + l0
}

// runLeg executes load + YCSB-A overload against one engine configuration
// and returns its measurements. flowOn selects the protected engine with
// per-write deadlines; otherwise the legacy blocking baseline.
func runLeg(c config, flowOn bool) (legResult, error) {
	var leg legResult
	m := slowMachine(c)
	tr := obs.NewTrace(obs.DefaultTraceCap)
	th0 := m.NewThread(0)
	db, err := core.Open(m, engineOptions(c.Shards, !flowOn, tr, c.CompactWorkers), th0)
	if err != nil {
		return leg, err
	}
	defer db.Close(th0)

	// Load phase: records inserted without deadlines (no attribution — the
	// report covers the overload phase only).
	var epoch int64
	{
		threads := make([]*hw.Thread, c.Threads)
		for t := range threads {
			threads[t] = m.NewThread(t)
		}
		perThread := c.Records / int64(c.Threads)
		var wg sync.WaitGroup
		var mu sync.Mutex
		var loadErr error
		for t := range threads {
			wg.Add(1)
			go func(t int) {
				defer wg.Done()
				th := threads[t]
				vals := bench.NewValueGen(c.ValueSize)
				keyBuf := make([]byte, 0, 32)
				start := perThread * int64(t)
				for i := int64(0); i < perThread; i++ {
					op := start + i
					key := bench.LoadKeys{}.Key(keyBuf, op, nil)
					if err := db.Put(th, key, vals.Value(op)); err != nil {
						mu.Lock()
						if loadErr == nil {
							loadErr = err
						}
						mu.Unlock()
						return
					}
				}
			}(t)
		}
		wg.Wait()
		if loadErr != nil {
			return leg, fmt.Errorf("load: %w", loadErr)
		}
		for _, th := range threads {
			if end := th.Clock.Now(); end > epoch {
				epoch = end
			}
		}
	}

	// Overload phase: YCSB-A (50/50 zipfian update/read) with per-write
	// deadlines on the flow leg, legacy blocking writes on the baseline.
	col := obs.NewCollector()
	// Arm slow-op forensics well below the deadline: a delayed (paced) write
	// waits a large fraction of its deadline, so every throttled op leaves a
	// dossier naming the stall it hit. Lookback pulls in the flow-state flip
	// and flush/compaction activity just before the op started.
	col.EnableSlowOps(obs.SlowOpPolicy{
		StaticNs:   c.DeadlineNs / 4,
		LookbackNs: c.DeadlineNs,
	}, tr)
	col.SetSlowOpContext(func() string { return db.FlowState().String() })
	zipf := bench.NewZipfian(c.Records)
	deadline := c.DeadlineNs
	if !flowOn {
		deadline = 0
	}
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		runErr   error
		writeLat = histogram.New()
		acked    int64
		stalled  int64
		overruns int64
		peak     uint64
		thVNs    int64
	)
	threads := make([]*hw.Thread, c.Threads)
	for t := range threads {
		threads[t] = m.NewThread(t)
		threads[t].Clock.AdvanceTo(epoch)
	}
	perThread := c.Ops / int64(c.Threads)
	for t := range threads {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			th := threads[t]
			rng := sim.NewRNG(c.Seed + uint64(t)*0x9E3779B9)
			vals := bench.NewValueGen(c.ValueSize)
			keyBuf := make([]byte, 0, 32)
			wl := histogram.New()
			var lAcked, lStalled, lOver int64
			var lPeak uint64
			var put core.Batch
			for i := int64(0); i < perThread; i++ {
				key := zipf.Key(keyBuf, perThread*int64(t)+i, rng)
				isPut := rng.Float64() < 0.5
				op := obs.OpGet
				if isPut {
					op = obs.OpPut
				}
				sp := col.StartOp(th, op)
				th.InPhase(hw.PhaseClient, func() {
					th.Clock.Advance(m.Costs.ClientOp)
				})
				opStart := th.Clock.Now()
				if isPut {
					err := db.Write(th, put.Borrow(util.KindValue, key, vals.Value(i)), deadline)
					lat := th.Clock.Now() - opStart
					switch {
					case err == nil:
						lAcked++
						wl.Record(lat)
						if deadline > 0 && lat > deadline+c.EnvelopeNs {
							lOver++
						}
					case errors.Is(err, core.ErrStalled):
						lStalled++
					default:
						mu.Lock()
						if runErr == nil {
							runErr = err
						}
						mu.Unlock()
						sp.End()
						return
					}
				} else {
					_, err := db.Get(th, key)
					if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
						mu.Lock()
						if runErr == nil {
							runErr = err
						}
						mu.Unlock()
						sp.End()
						return
					}
				}
				sp.End()
				if i%32 == 0 {
					_, l0b, backlog := db.FlowSignals()
					if fp := backlog + uint64(l0b); fp > lPeak {
						lPeak = fp
					}
				}
			}
			mu.Lock()
			writeLat.Merge(wl)
			acked += lAcked
			stalled += lStalled
			overruns += lOver
			if lPeak > peak {
				peak = lPeak
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	if runErr != nil {
		return leg, fmt.Errorf("overload phase: %w", runErr)
	}
	for _, th := range threads {
		thVNs += th.Clock.Now() - epoch
	}

	leg.AckedWrites = acked
	leg.StalledWrites = stalled
	leg.WriteP999 = writeLat.Percentile(99.9)
	leg.WriteMax = writeLat.Max()
	leg.DeadlineOverruns = overruns
	leg.PeakFootprint = peak
	leg.Flow = db.FlowStats()
	leg.SlowOps = col.SlowOps()

	// The leg's obs report, built only to be verified: per-op layer
	// attribution must stay consistent for delayed and rejected writes too.
	run := obs.RunReport{
		ThreadVNs: thVNs,
		OpStats:   col.OpStats(),
		Metrics:   bench.BuildRegistry(m, db, tr).Gather(),
		SlowOps:   leg.SlowOps,
	}
	if t := m.ObsTally(); t != nil {
		run.Layers = obs.LayersFromTally(t.Snapshot())
	}
	leg.VerifyViolations = run.Verify()
	return leg, nil
}

// causeEvents are the trace event types that name the subsystem responsible
// for a stall: flow-control admission decisions, flush-pipeline pressure, and
// compaction jobs.
var causeEvents = map[string]bool{
	"write_stall": true, "write_delay": true, "write_stop_wait": true,
	"flow_state": true, "flush_stall": true, "flush_start": true, "flush_end": true,
	"spill_start": true, "spill_end": true, "memtable_seal": true,
	"compact_start": true, "compact_end": true, "lsm_compaction": true,
	"skiplist_compaction": true,
}

// dossierNamesCause reports whether at least one dossier's event window
// contains an event identifying the flow-control stall or compaction/flush job
// the slow op collided with — the point of the forensics.
func dossierNamesCause(ds []obs.Dossier) bool {
	for _, d := range ds {
		for _, ev := range d.Events {
			if causeEvents[ev.Type] {
				return true
			}
		}
	}
	return false
}

// runCrashLeg overloads a fresh protected engine, crashes the machine while
// the flow controller is throttling, recovers, and checks that acknowledged
// writes survived with their last acked values, rejected writes stayed
// absent, and the engine came back admitting in the OK state.
//
// The leg runs c.Threads concurrent writers over disjoint key spaces (a
// single synchronous writer cannot outrun the per-shard flush pipelines, so
// it would wedge on the pool before the flow signals ever rise). Every writer
// stops before the plug is pulled, so each key's last acked value is exact.
func runCrashLeg(c config) (*crashResult, error) {
	cr := &crashResult{StateAtCrash: core.FlowOK.String()}
	m := slowMachine(c)
	th := m.NewThread(0)
	opts := engineOptions(c.Shards, false, nil, c.CompactWorkers)
	db, err := core.Open(m, opts, th)
	if err != nil {
		return cr, err
	}

	var (
		mu        sync.Mutex
		ackedVal  = make(map[string]string)
		rejected  = make(map[string]bool)
		stallSeen atomic.Bool
		stallGen  int32
		writeErr  error
	)
	// Prime volume is sized from the engine shape, not the workload flags:
	// enough blocking writes to fill the pool, the ImmZone, and the L0 debt
	// window, so the deadline phase starts against an already-behind
	// pipeline even on shrunk smoke runs.
	primeBytes := int64(defaultMemCap(c.Shards))
	universe := primeBytes/int64(c.Threads)/int64(4*c.ValueSize) + 1
	perThread := universe + 8192
	var wg sync.WaitGroup
	for t := 0; t < c.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			wth := m.NewThread(t)
			vals := bench.NewValueGen(4 * c.ValueSize)
			acked := make(map[string]string)
			rej := make(map[string]bool)
			deeper := int64(-1)
			var put core.Batch
			for i := int64(0); i < perThread; i++ {
				// The first universe ops prime the flush pipeline with
				// blocking writes (the crash leg's load phase); after that
				// every op writes a FRESH key under the deadline, so a
				// rejected key is one the store never acked in any form and
				// must be fully absent after recovery.
				key := fmt.Sprintf("ck%d.%08d", t, i)
				v := vals.Value(i)
				deadline := c.DeadlineNs
				if i < universe && !stallSeen.Load() {
					// Prime writes block — until the first stall sighting,
					// after which every write carries the deadline so the
					// burst below really is doomed under Stop.
					deadline = 0
				}
				err := db.Write(wth, put.Borrow(util.KindValue, []byte(key), v), deadline)
				switch {
				case err == nil:
					acked[key] = string(v)
					delete(rej, key)
				case errors.Is(err, core.ErrStalled):
					if _, ok := acked[key]; !ok {
						rej[key] = true
					}
				default:
					mu.Lock()
					if writeErr == nil {
						writeErr = fmt.Errorf("crash leg write %d: %w", i, err)
					}
					mu.Unlock()
					return
				}
				if st := db.FlowState(); st != core.FlowOK {
					stallSeen.Store(true)
					// Record the deepest state the run reached, and keep
					// pushing after the first Slowdown so the crash has a
					// chance to land in Stop with rejected writes behind it.
					for {
						prev := atomic.LoadInt32(&stallGen)
						if int32(st) <= prev || atomic.CompareAndSwapInt32(&stallGen, prev, int32(st)) {
							break
						}
					}
					if deeper < 0 {
						deeper = i + 2048
					}
					// Once Stop is reached, a short burst of doomed writes
					// (rejected, never acked) gives the recovery oracle real
					// rejected keys to prove absent — then pull the plug.
					if st == core.FlowStop && deeper > i+256 {
						deeper = i + 256
					}
				}
				if deeper >= 0 && i >= deeper {
					break
				}
			}
			mu.Lock()
			for k, v := range acked {
				ackedVal[k] = v
			}
			for k := range rej {
				rejected[k] = true
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	if writeErr != nil {
		return cr, writeErr
	}
	cr.EnteredStall = stallSeen.Load()
	if cr.EnteredStall {
		cr.StateAtCrash = core.FlowState(atomic.LoadInt32(&stallGen)).String()
	}
	cr.AckedKeys = len(ackedVal)
	cr.RejectedKeys = len(rejected)
	if !cr.EnteredStall {
		cr.Violations = append(cr.Violations,
			"crash leg never entered Slowdown/Stop: overload too weak to test crash-mid-stall")
	}

	db.Halt()
	m.Crash()
	_ = db.Close(th)
	m.Recover()
	th2 := m.NewThread(0)
	db2, err := core.Open(m, opts, th2)
	if err != nil {
		cr.Violations = append(cr.Violations, fmt.Sprintf("recovery open failed: %v", err))
		return cr, nil
	}
	defer db2.Close(th2)

	for key, want := range ackedVal {
		v, err := db2.Get(th2, []byte(key))
		if err != nil {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"acked key %q lost across crash-mid-stall: %v", key, err))
			continue
		}
		if string(v) != want {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"acked key %q recovered wrong value (%d bytes, want %d)", key, len(v), len(want)))
		}
	}
	for key := range rejected {
		if _, err := db2.Get(th2, []byte(key)); err == nil {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"rejected key %q surfaced after recovery", key))
		}
	}
	// The recovered controller may honestly start in Slowdown or Stop — the
	// L0 debt behind the crash survived with the data. Draining the pipeline
	// must walk it back to OK; staying throttled after the debt is gone (or
	// refusing a healthy write afterwards) is the violation.
	for r := 0; r < 32 && db2.FlowState() != core.FlowOK; r++ {
		if err := db2.FlushAll(th2); err != nil {
			cr.Violations = append(cr.Violations, fmt.Sprintf(
				"drain after recovery failed: %v", err))
			return cr, nil
		}
	}
	if st := db2.FlowState(); st != core.FlowOK {
		cr.Violations = append(cr.Violations, fmt.Sprintf(
			"recovered engine stuck in flow state %v after drain", st))
	}
	var put core.Batch
	put.Put([]byte("post-crash"), []byte("ok"))
	if err := db2.Write(th2, &put, c.DeadlineNs); err != nil {
		cr.Violations = append(cr.Violations, fmt.Sprintf(
			"recovered engine rejected a healthy write: %v", err))
	}
	return cr, nil
}

func main() {
	shards := flag.Int("shards", 4, "engine shards")
	threads := flag.Int("threads", 4, "writer threads")
	records := flag.Int64("records", 20000, "records loaded before the overload phase")
	ops := flag.Int64("ops", 80000, "overload-phase operations")
	valueSize := flag.Int("value", 256, "value size in bytes")
	deadlineUs := flag.Int64("deadline-us", 500, "per-write stall deadline (virtual µs)")
	envelopeUs := flag.Int64("envelope-us", 0, "allowed commit latency beyond the deadline (virtual µs; 0 = 4x deadline)")
	slowMult := flag.Int("slow", 8, "PMem latency multiplier of the degraded device")
	flushPauseUs := flag.Int64("flush-pause-us", 2000, "extra pause per background flush job (virtual µs)")
	memCapMB := flag.Int64("mem-cap-mb", 0, "bounded-footprint cap (MiB; 0 = derive from engine shape)")
	divergence := flag.Float64("divergence", 2, "required baseline/flow p99.9 ratio")
	baseline := flag.Bool("baseline", true, "also run the no-flow-control baseline leg")
	crash := flag.Bool("crash", true, "run the crash-mid-stall leg")
	compactWorkers := flag.Int("compaction-workers", 0, "background compaction workers per shard (0 = default (1))")
	smoke := flag.Bool("smoke", false, "shrink the run for CI")
	seed := flag.Uint64("seed", 1, "workload seed")
	flag.Parse()

	c := config{
		Shards:         *shards,
		Threads:        *threads,
		Records:        *records,
		Ops:            *ops,
		ValueSize:      *valueSize,
		DeadlineNs:     *deadlineUs * 1000,
		EnvelopeNs:     *envelopeUs * 1000,
		SlowMult:       *slowMult,
		FlushPauseNs:   *flushPauseUs * 1000,
		CompactWorkers: *compactWorkers,
		Divergence:     *divergence,
		Seed:           *seed,
	}
	if *smoke {
		c.Records = 4000
		c.Ops = 16000
		c.Threads = 2
	}
	if c.EnvelopeNs <= 0 {
		c.EnvelopeNs = 4 * c.DeadlineNs
	}
	if *memCapMB > 0 {
		c.MemCapBytes = uint64(*memCapMB) << 20
	} else {
		c.MemCapBytes = defaultMemCap(c.Shards)
	}

	var violations []string
	fail := func(err error) {
		fmt.Fprintf(os.Stderr, "torture: %v\n", err)
		os.Exit(1)
	}

	flow, err := runLeg(c, true)
	if err != nil {
		fail(err)
	}
	fmt.Printf("flow:     acked=%d stalled=%d delayed=%d p99.9=%.0fns max=%dns peak=%dB dossiers=%d\n",
		flow.AckedWrites, flow.StalledWrites, flow.Flow.DelayedWrites,
		flow.WriteP999, flow.WriteMax, flow.PeakFootprint, len(flow.SlowOps))

	var base legResult
	if *baseline {
		base, err = runLeg(c, false)
		if err != nil {
			fail(err)
		}
		fmt.Printf("baseline: acked=%d p99.9=%.0fns max=%dns peak=%dB\n",
			base.AckedWrites, base.WriteP999, base.WriteMax, base.PeakFootprint)
	}

	// The protection oracle.
	if flow.PeakFootprint > c.MemCapBytes {
		violations = append(violations, fmt.Sprintf(
			"flow leg footprint unbounded: peak %d B exceeds cap %d B", flow.PeakFootprint, c.MemCapBytes))
	}
	if flow.DeadlineOverruns > 0 {
		violations = append(violations, fmt.Sprintf(
			"%d acked writes exceeded deadline+envelope (%d ns)", flow.DeadlineOverruns, c.DeadlineNs+c.EnvelopeNs))
	}
	if p := float64(c.DeadlineNs + c.EnvelopeNs); flow.WriteP999 > p {
		violations = append(violations, fmt.Sprintf(
			"flow leg write p99.9 %.0f ns above the %g ns envelope", flow.WriteP999, p))
	}
	if flow.Flow.DelayedWrites+flow.Flow.RejectedWrites == 0 {
		violations = append(violations,
			"overload never engaged flow control (no delayed or rejected writes): raise -slow or lower the zones")
	}
	if len(flow.VerifyViolations) > 0 {
		violations = append(violations, fmt.Sprintf(
			"flow leg obs report failed Verify: %s", flow.VerifyViolations[0]))
	}
	if len(flow.SlowOps) == 0 {
		violations = append(violations,
			"overload produced no slow-op dossiers: capture threshold too high or throttling never engaged")
	} else if !dossierNamesCause(flow.SlowOps) {
		violations = append(violations,
			"no slow-op dossier's event window names the flow-control stall or compaction job behind it")
	}
	if *baseline && !*smoke {
		// Divergence needs a long enough run for the baseline's unbounded
		// queueing to reach p99.9; the shortened smoke run only exercises
		// the harness and the flow leg's own bounds.
		if ratio := base.WriteP999 / flow.WriteP999; ratio < c.Divergence {
			violations = append(violations, fmt.Sprintf(
				"baseline p99.9 only %.2fx the flow leg's (want >= %.1fx): overload too weak to show divergence",
				ratio, c.Divergence))
		}
	}
	if *crash {
		cr, err := runCrashLeg(c)
		if err != nil {
			fail(err)
		}
		violations = append(violations, cr.Violations...)
		fmt.Printf("crash:    stall=%v state=%s acked=%d rejected=%d violations=%d\n",
			cr.EnteredStall, cr.StateAtCrash, cr.AckedKeys, cr.RejectedKeys, len(cr.Violations))
	}

	if len(violations) > 0 {
		for _, v := range violations {
			fmt.Fprintf(os.Stderr, "torture: VIOLATION: %s\n", v)
		}
		os.Exit(1)
	}
	fmt.Println("torture: PASS")
}
