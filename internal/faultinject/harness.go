package faultinject

import (
	"fmt"
	"strings"
	"sync"

	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// Family is one crash-schedule family: a script builder's output and one bool.
// It is all a feature has to supply to be swept; the runner (Count, Run,
// Sweep) owns the rest — platform, injector, freeze detection, power failure,
// media faults, recovery with its panic guard, the oracle (oracle.go) and the
// reproduction tuple.
type Family struct {
	Name string
	// Engine names the one engine the script is written for (FindEngine);
	// empty means it runs on any engine.
	Engine string
	Seed   uint64
	// NumOps is the builder's size parameter (ops, batches, writes per stall
	// phase): NewFamily(Name, Seed, NumOps) rebuilds the identical script,
	// which is what makes a printed Schedule replayable.
	NumOps int
	Script Script
	// LogDurable says the script writes only through the router's batch log,
	// which is written with non-temporal stores: its acknowledged steps
	// are durable under ADR on an engine that does not contract DurableADR.
	LogDurable bool
}

// FamilyNames lists the families NewFamily builds.
var FamilyNames = []string{"single-key", "cross-shard", "stall"}

// NewFamily builds the named family's script from its seed and size; ops <= 0
// takes the family's canonical size (200 ops, 60 batches, 3 writes per stall
// phase).
func NewFamily(name string, seed uint64, ops int) (Family, error) {
	switch name {
	case "single-key":
		if ops <= 0 {
			ops = 200
		}
		return singleKeyFamily(seed, ops), nil
	case "cross-shard":
		if ops <= 0 {
			ops = 60
		}
		return crossShardFamily(seed, ops), nil
	case "stall":
		if ops <= 0 {
			ops = 3
		}
		return stallFamily(seed, ops), nil
	}
	return Family{}, fmt.Errorf("unknown family %q (want one of %v)", name, FamilyNames)
}

// Schedule identifies one crash run completely; re-running a schedule
// reproduces the same event stream and the same verdict. This tuple is what
// failure reports print.
type Schedule struct {
	Family       string
	Engine       string
	Domain       cache.Domain
	WorkloadSeed uint64
	NumOps       int
	CrashAt      int64 // 1-based index of the suppressed/torn event
	Fault        Fault
}

// String renders the schedule tuple.
func (s Schedule) String() string {
	return fmt.Sprintf("family=%s engine=%s domain=%s seed=%d ops=%d crashAt=%d fault=%s",
		s.Family, s.Engine, s.Domain, s.WorkloadSeed, s.NumOps, s.CrashAt, s.Fault)
}

// Reproduce renders the crashsweep command line that replays the schedule.
func (s Schedule) Reproduce() string {
	return fmt.Sprintf("crashsweep -family %s -engine %s -domain %s -seed %d -ops %d -crash-at %d -fault %s",
		s.Family, s.Engine, strings.ToLower(s.Domain.String()), s.WorkloadSeed, s.NumOps, s.CrashAt, s.Fault)
}

// Result is the outcome of one schedule run.
type Result struct {
	Schedule   Schedule
	Frozen     bool  // crash point was reached during the script
	Events     int64 // events numbered before the run ended
	Inflight   int   // step the crash or a failure interrupted (len(Script.Steps) if none)
	StreamHash uint64
	// RecoveryRefused is set when reopening after a FaultFlip corruption
	// failed with a clean error — an acceptable outcome for that mode.
	RecoveryRefused error
	Violations      []string
	Recovered       map[string]string // post-recovery present keys
	// FilterProbes/FilterNegatives capture the recovered engine's
	// active-key table counters after the oracle's probes, when the engine
	// exposes them (CacheKV family): its probes, and those that found the key
	// in no active slot. The table is probed only while a slot is active —
	// after a recovery, until the flush worker has copied the recovered slots
	// into the ImmZone, which RunBeforeRecoveredFlush holds back.
	FilterProbes    int64
	FilterNegatives int64
}

// Failed reports whether the run violated the oracle.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Err summarizes a failed result for test output.
func (r *Result) Err() error {
	if !r.Failed() {
		return nil
	}
	return fmt.Errorf("schedule {%s} violated the oracle (%d violations; first: %s); reproduce: %s",
		r.Schedule, len(r.Violations), r.Violations[0], r.Schedule.Reproduce())
}

// scheduleSeed derives the RNG seed for a schedule's fault-mode choices from
// the reproduction tuple, so torn cuts and bit flips replay exactly.
func scheduleSeed(workloadSeed uint64, crashAt int64, fault Fault) uint64 {
	return fnvMix(fnvOffset, workloadSeed, uint64(crashAt), uint64(fault))
}

// Count runs fam against a fresh engine with a counting-only injector and
// returns the total number of crash-point events the script generates plus
// the stream hash. Sweeps use it to size the crash-point space; the
// determinism tests compare hashes across runs.
func Count(spec EngineSpec, domain cache.Domain, fam Family) (int64, uint64, error) {
	m := NewMachine(domain)
	th := m.NewThread(0)
	db, err := spec.Open(m, th, nil)
	if err != nil {
		return 0, 0, fmt.Errorf("open %s: %w", spec.Name, err)
	}
	inj := NewInjector()
	inj.Arm(0, FaultNone, 0)
	m.SetMemGate(inj.Gate)
	defer func() { // teardown is not part of the script: gate off first
		m.SetMemGate(nil)
		_ = db.Close(th)
	}()
	wth := m.NewThread(1)
	for i := range fam.Script.Steps {
		if err := apply(db, wth, &fam.Script.Steps[i]); err != nil {
			return 0, 0, fmt.Errorf("%s: %s step %d failed: %w", spec.Name, fam.Name, i, err)
		}
	}
	return inj.Events(), inj.StreamHash(), nil
}

// flipMedia applies the bit flip a FaultFlip schedule selected at its crash
// point (no-op for other faults), straight to the media: it must be the last
// thing to touch it before recovery.
func flipMedia(m *hw.Machine, inj *Injector) (addr uint64, bit uint, ok bool) {
	if addr, bit, ok = inj.FlipTarget(); ok {
		var b [1]byte
		m.PMem.LoadRaw(addr, b[:])
		b[0] ^= 1 << bit
		m.PMem.StoreRaw(addr, b[:])
	}
	return addr, bit, ok
}

// Run executes one crash schedule end to end: open a fresh engine, arm the
// injector, apply fam's script until the crash point freezes the platform,
// cut the power, stop the dead engine, apply any media fault,
// recover, probe the recovered engine and let the reference model judge what
// the probe read. Crash-point annotations are emitted into tr (nil-safe), so
// a replayed schedule's event trace shows exactly where the injected crash
// and media fault landed relative to engine lifecycle events.
func Run(spec EngineSpec, domain cache.Domain, fam Family, crashAt int64, fault Fault, tr *obs.Trace) *Result {
	return run(spec, domain, fam, crashAt, fault, tr, false)
}

// RunBeforeRecoveredFlush is Run with the recovered engine's stores into its
// ImmZone (the CacheKV family's "cachekv.imm" region) held until the oracle is
// done: the flush worker copies the sub-MemTables recovery sealed only after the
// oracle's Gets, so those Gets find the recovered keys in the sealed slots,
// whatever the host's timing. An engine without that region runs as under Run.
func RunBeforeRecoveredFlush(spec EngineSpec, domain cache.Domain, fam Family, crashAt int64, fault Fault, tr *obs.Trace) *Result {
	return run(spec, domain, fam, crashAt, fault, tr, true)
}

func run(spec EngineSpec, domain cache.Domain, fam Family, crashAt int64, fault Fault, tr *obs.Trace, holdFlush bool) *Result {
	res := &Result{
		Schedule: Schedule{
			Family:       fam.Name,
			Engine:       spec.Name,
			Domain:       domain,
			WorkloadSeed: fam.Seed,
			NumOps:       fam.NumOps,
			CrashAt:      crashAt,
			Fault:        fault,
		},
		Inflight: len(fam.Script.Steps),
	}
	m := NewMachine(domain)
	th := m.NewThread(0)
	db, err := spec.Open(m, th, tr)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("initial open failed: %v", err))
		return res
	}

	inj := NewInjector()
	inj.Arm(crashAt, fault, scheduleSeed(fam.Seed, crashAt, fault))
	m.SetMemGate(inj.Gate)
	wth := m.NewThread(1)
	tr.Emit(wth.Clock.Now(), "crash_armed", "family", fam.Name,
		"engine", spec.Name, "crash_at", crashAt, "fault", fault.String())
	for i := range fam.Script.Steps {
		err := apply(db, wth, &fam.Script.Steps[i])
		if err != nil && !inj.Frozen() {
			res.Violations = append(res.Violations,
				fmt.Sprintf("step %d failed before the crash point: %v", i, err))
		}
		if err != nil || inj.Frozen() {
			// The crash (or the failure) interrupted step i: some of its
			// events may have taken effect, its acknowledgement never
			// completed, and no later step was issued.
			res.Inflight = i
			break
		}
	}
	res.Frozen = inj.Frozen()
	res.Events = inj.Events()
	if res.Frozen {
		tr.Emit(wth.Clock.Now(), "crash_frozen",
			"inflight_op", res.Inflight, "events", res.Events)
	}

	// Power failure while the partitions are still pinned (the eADR drain must
	// see them), then stop the dead engine. The media flip waits for Close to
	// join its goroutines: it must be the last thing to touch the media.
	m.Crash()
	_ = db.Close(th)
	m.SetMemGate(nil)
	if addr, bit, ok := flipMedia(m, inj); ok {
		tr.Emit(th.Clock.Now(), "media_fault", "addr", addr, "bit", bit)
	}
	m.Recover()
	res.StreamHash = inj.StreamHash()
	release := func() {}
	if zone, ok := m.LookupRegion("cachekv.imm"); holdFlush && ok {
		held := make(chan struct{})
		m.SetMemGate(func(op sim.MemOp, addr uint64, size int) int {
			if op == sim.MemOpNTWrite && zone.Addr <= addr && addr < zone.End() {
				<-held
			}
			return size
		})
		var once sync.Once
		release = func() {
			once.Do(func() {
				m.SetMemGate(nil)
				close(held)
			})
		}
		defer release() // an open that fails may have queued a flush
	}

	// Recovery. A panic is always a violation. A clean open error is
	// acceptable only for FaultFlip (corruption may damage metadata the
	// engine refuses to mount) — refusing service is honest, fabricating
	// data is not.
	th2 := m.NewThread(0)
	tr.Emit(th2.Clock.Now(), "recovery_open", "engine", spec.Name)
	var db2 kvstore.DB
	openErr := func() (err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("recovery panicked: %v", r)
				res.Violations = append(res.Violations, err.Error())
			}
		}()
		db2, err = spec.Open(m, th2, tr)
		return err
	}()
	if openErr != nil { // not db2 == nil: a failed open may return a typed nil
		switch {
		case len(res.Violations) > 0: // the panic, already recorded
		case fault == FaultFlip:
			res.RecoveryRefused = openErr
			tr.Emit(th2.Clock.Now(), "recovery_refused", "err", openErr.Error())
		default:
			res.Violations = append(res.Violations, fmt.Sprintf("recovery open failed: %v", openErr))
		}
		return res
	}

	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Violations = append(res.Violations,
					fmt.Sprintf("recovered engine panicked under oracle probes: %v", r))
			}
		}()
		// A bit flip may eat a legitimately persisted suffix, or one shard's
		// half of a committed batch: it voids durability and atomicity, never
		// validity. A torn crash-point write voids nothing.
		intact := fault != FaultFlip
		durable := intact && (domain == cache.EADR || spec.DurableADR || fam.LogDurable)
		var v []string
		res.Recovered, v = probe(db2, th2, fam.Script.Keys)
		res.Violations = append(res.Violations, v...)
		res.Violations = append(res.Violations, judge(&fam.Script, res.Inflight, durable, intact, res.Recovered)...)
		if st, ok := db2.(core.Store); ok {
			r := obs.NewRegistry()
			st.RegisterObs(r)
			snap := r.Gather()
			res.FilterProbes, res.FilterNegatives = snap.Int(obs.MFilterProbes), snap.Int(obs.MFilterNegatives)
		}
		release()
		_ = db2.Close(th2)
	}()
	tr.Emit(th2.Clock.Now(), "oracle_done",
		"violations", len(res.Violations), "recovered_keys", len(res.Recovered))
	return res
}

// SweepConfig parameterizes a sweep over the crash-point space: every
// (engine, domain, family, fault) combination is one configuration.
type SweepConfig struct {
	Engines  []EngineSpec
	Domains  []cache.Domain
	Families []Family
	// SchedulesPerConfig bounds the crash points tried per configuration;
	// 0 explores every crash point exhaustively.
	SchedulesPerConfig int
	// ScheduleSeed drives the bounded sweep's crash-point sampling.
	ScheduleSeed uint64
	Faults       []Fault // empty = FaultNone only
	// Parallel runs up to this many schedules concurrently (each on its own
	// platform instance); <= 1 runs sequentially. Results are independent of
	// the setting.
	Parallel int
	// Log, when non-nil, receives progress lines.
	Log func(format string, args ...any)
}

// SweepStats aggregates a sweep.
type SweepStats struct {
	Runs     int
	Failures []*Result
}

// Sweep enumerates or samples crash schedules per the config and runs each
// one. Every failure carries its reproduction tuple.
func Sweep(cfg SweepConfig) (*SweepStats, error) {
	if len(cfg.Faults) == 0 {
		cfg.Faults = []Fault{FaultNone}
	}
	logf := cfg.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stats := &SweepStats{}

	type job struct {
		spec    EngineSpec
		domain  cache.Domain
		fam     Family
		crashAt int64
		fault   Fault
	}
	var jobs []job
	for _, fam := range cfg.Families {
		for _, spec := range cfg.Engines {
			for _, domain := range cfg.Domains {
				total, _, err := Count(spec, domain, fam)
				if err != nil {
					return nil, err
				}
				if total == 0 {
					return nil, fmt.Errorf("%s/%s/%s: script numbers no persistence events; nothing to crash",
						fam.Name, spec.Name, domain)
				}
				for _, fault := range cfg.Faults {
					if cfg.SchedulesPerConfig <= 0 {
						for k := int64(1); k <= total; k++ {
							jobs = append(jobs, job{spec, domain, fam, k, fault})
						}
						continue
					}
					rng := newSampleRNG(cfg.ScheduleSeed, spec.Name, domain, fault)
					for s := 0; s < cfg.SchedulesPerConfig; s++ {
						k := 1 + int64(rng.Uint64n(uint64(total)))
						jobs = append(jobs, job{spec, domain, fam, k, fault})
					}
				}
				logf("faultinject: %s/%s/%s: %d events", fam.Name, spec.Name, domain, total)
			}
		}
	}

	results := make([]*Result, len(jobs))
	workers := cfg.Parallel
	if workers < 1 {
		workers = 1
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(jobs) {
					return
				}
				j := jobs[i]
				results[i] = Run(j.spec, j.domain, j.fam, j.crashAt, j.fault, nil)
			}
		}()
	}
	wg.Wait()

	for _, r := range results {
		stats.Runs++
		if r.Failed() {
			stats.Failures = append(stats.Failures, r)
			logf("faultinject: FAIL {%s}: %s", r.Schedule, r.Violations[0])
		}
	}
	return stats, nil
}

// newSampleRNG seeds the bounded sweep's crash-point sampler so each
// (engine, domain, fault) combination draws an independent but reproducible
// sequence.
func newSampleRNG(seed uint64, engine string, domain cache.Domain, fault Fault) *rngAdapter {
	h := uint64(fnvOffset)
	for _, c := range []byte(engine) {
		h = fnvMix(h, uint64(c))
	}
	h = fnvMix(h, seed, uint64(domain), uint64(fault))
	return &rngAdapter{state: h}
}

// rngAdapter is a SplitMix64 stream over a derived seed (sim.NewRNG remaps
// seed 0; this keeps the derivation transparent).
type rngAdapter struct{ state uint64 }

func (r *rngAdapter) Uint64n(n uint64) uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return z % n
}
