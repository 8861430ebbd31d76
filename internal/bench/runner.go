package bench

import (
	"sync"

	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// OpKind is one operation type in a mixed workload.
type OpKind int

// Operation kinds.
const (
	OpPut OpKind = iota
	OpGet
	OpRMW // read-modify-write (YCSB-F)
)

// Mix selects an operation kind per op index. Fractions are cumulative
// probabilities evaluated against a per-op deterministic draw.
type Mix struct {
	PutFrac float64 // fraction of puts
	RMWFrac float64 // fraction of read-modify-writes
	// remainder are gets
}

// WriteOnly is a 100% insert mix.
var WriteOnly = Mix{PutFrac: 1.0}

// ReadOnly is a 100% read mix.
var ReadOnly = Mix{}

// Workload fully describes one benchmark phase.
type Workload struct {
	Name      string
	Keys      KeyGen
	ValueSize int
	Ops       int64
	Threads   int
	Mix       Mix
	Seed      uint64
}

// Result captures one phase's outcome.
type Result struct {
	Name       string
	Engine     string
	Ops        int64
	Threads    int
	ElapsedNs  int64 // virtual wall time (max thread end - epoch)
	ThreadVNs  int64 // summed per-thread busy time (Σ end - epoch)
	KopsPerSec float64
	Breakdown  hw.Breakdown
	HW         pmem.CountersSnapshot // hardware counter delta over the phase
	NotFound   int64
	Latency    *histogram.H // per-op virtual latency distribution
}

// Runner executes workload phases against one engine, maintaining the
// virtual-time epoch across phases so background servers' timestamps from a
// fill phase cannot distort a subsequent read phase.
type Runner struct {
	M     *hw.Machine
	DB    kvstore.DB
	Col   *obs.Collector // optional per-op attribution sink (nil = off)
	epoch int64
}

// NewRunner wraps an engine for benchmarking.
func NewRunner(m *hw.Machine, db kvstore.DB) *Runner {
	return &Runner{M: m, DB: db}
}

// Run executes one workload phase and returns its result.
func (r *Runner) Run(w Workload) (Result, error) {
	if w.Threads < 1 {
		w.Threads = 1
	}
	if w.Seed == 0 {
		w.Seed = 1
	}
	res := Result{Name: w.Name, Engine: r.DB.Name(), Ops: w.Ops, Threads: w.Threads,
		Latency: histogram.New()}
	hwBefore := r.M.PMem.Snapshot()

	// Thread t runs ops [start(t), start(t+1)): Ops/Threads each, the
	// remainder one apiece to the first Ops%Threads threads.
	perThread, extra := w.Ops/int64(w.Threads), w.Ops%int64(w.Threads)
	start := func(t int) int64 { return perThread*int64(t) + min(int64(t), extra) }
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		firstEr error
		maxEnd  int64
	)
	threads := make([]*hw.Thread, w.Threads)
	for t := 0; t < w.Threads; t++ {
		threads[t] = r.M.NewThread(t)
		threads[t].Clock.AdvanceTo(r.epoch)
	}
	for t := 0; t < w.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			th := threads[t]
			rng := sim.NewRNG(w.Seed + uint64(t)*0x9E3779B9)
			vals := NewValueGen(w.ValueSize)
			keyBuf := make([]byte, 0, 32)
			var notFound int64
			for op, end := start(t), start(t+1); op < end; op++ {
				key := w.Keys.Key(keyBuf, op, rng)
				kind := pickOp(w.Mix, rng)
				sp := r.Col.StartOp(th, spanOp(kind))
				// The benchmark client's own per-op work (key generation,
				// dispatch, stats) — identical for every engine.
				th.InPhase(hw.PhaseClient, func() {
					th.Clock.Advance(r.M.Costs.ClientOp)
				})
				opStart := th.Clock.Now()
				var err error
				switch kind {
				case OpPut:
					err = r.DB.Put(th, key, vals.Value(op))
				case OpGet:
					_, err = r.DB.Get(th, key)
					if err == kvstore.ErrNotFound {
						notFound++
						err = nil
					}
				case OpRMW:
					_, err = r.DB.Get(th, key)
					if err == kvstore.ErrNotFound {
						notFound++
						err = nil
					}
					if err == nil {
						err = r.DB.Put(th, key, vals.Value(op))
					}
				}
				if err != nil {
					mu.Lock()
					if firstEr == nil {
						firstEr = err
					}
					mu.Unlock()
					return
				}
				res.Latency.Record(th.Clock.Now() - opStart)
				sp.End()
			}
			mu.Lock()
			if end := th.Clock.Now(); end > maxEnd {
				maxEnd = end
			}
			res.NotFound += notFound
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	if firstEr != nil {
		return res, firstEr
	}
	for _, th := range threads {
		res.Breakdown.Add(th.PhaseBreakdown())
		res.ThreadVNs += th.Clock.Now() - r.epoch
	}
	res.ElapsedNs = maxEnd - r.epoch
	if res.ElapsedNs > 0 {
		res.KopsPerSec = float64(w.Ops) / float64(res.ElapsedNs) * 1e6
	}
	res.HW = r.M.PMem.Snapshot().Sub(hwBefore)
	r.epoch = maxEnd
	return res, nil
}

// spanOp maps a workload op kind to its attribution op type.
func spanOp(k OpKind) obs.Op {
	switch k {
	case OpPut:
		return obs.OpPut
	case OpRMW:
		return obs.OpRMW
	default:
		return obs.OpGet
	}
}

// pickOp selects the op kind for one draw.
func pickOp(m Mix, rng *sim.RNG) OpKind {
	u := rng.Float64()
	switch {
	case u < m.PutFrac:
		return OpPut
	case u < m.PutFrac+m.RMWFrac:
		return OpRMW
	default:
		return OpGet
	}
}

// Settle flushes the engine and the XPBuffer so hardware counters quiesce
// between phases, advancing the epoch past all background work.
func (r *Runner) Settle(th *hw.Thread) error {
	th.Clock.AdvanceTo(r.epoch)
	if err := r.DB.FlushAll(th); err != nil {
		return err
	}
	th.InPhase(hw.PhaseSettle, func() {
		r.M.PMem.Flush(th.Clock)
	})
	if now := th.Clock.Now(); now > r.epoch {
		r.epoch = now
	}
	return nil
}
