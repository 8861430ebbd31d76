// Package hw assembles the simulated platform the engines run on: an Optane
// PMem device (internal/hw/pmem) fronted by a persistent last-level cache
// (internal/hw/cache), a shared virtual-time cost model (internal/hw/sim),
// and a simple region allocator over the PMem physical address space.
//
// Engines never touch the sub-models directly; they allocate regions, obtain
// per-thread contexts, and issue Read/Write/NTWrite/Flush operations that are
// charged to the issuing thread's virtual clock. DRAM-resident structures are
// ordinary Go values — the machine only charges their access latency — and
// they are discarded at Crash(), while PMem regions and (under eADR) cache
// contents survive.
package hw

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// Config describes the simulated platform.
type Config struct {
	PMemBytes uint64       // PMem capacity
	Cache     cache.Config // LLC geometry and persistence domain
	Cores     int          // physical cores available to user threads
	Costs     *sim.CostModel
}

// DefaultConfig models the paper's testbed: 512 GB of Optane behind a 36 MB
// 12-way eADR LLC on a 24-core socket. The default PMem capacity here is
// smaller (4 GiB) because experiments are scaled down; raise it when needed.
func DefaultConfig() Config {
	return Config{
		PMemBytes: 4 << 30,
		Cache:     cache.DefaultConfig(),
		Cores:     24,
		Costs:     sim.DefaultCosts(),
	}
}

// Machine is one simulated platform instance.
type Machine struct {
	cfg   Config
	Costs *sim.CostModel
	PMem  *pmem.Device
	Cache *cache.LLC

	allocMu sync.Mutex
	next    uint64
	regions map[string]Region

	threadSeq atomic.Int64

	obsTally *sim.MemTally // per-layer hardware attribution; nil until EnableObs
}

// Region is a named, contiguous range of PMem physical addresses.
type Region struct {
	Name string
	Addr uint64
	Size uint64
}

// End returns the first address past the region.
func (r Region) End() uint64 { return r.Addr + r.Size }

// NewMachine builds a platform from cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.Costs == nil {
		cfg.Costs = sim.DefaultCosts()
	}
	if cfg.PMemBytes == 0 {
		cfg.PMemBytes = 4 << 30
	}
	if cfg.Cores <= 0 {
		cfg.Cores = 24
	}
	dev := pmem.NewDevice(cfg.PMemBytes, cfg.Costs)
	return &Machine{
		cfg:     cfg,
		Costs:   cfg.Costs,
		PMem:    dev,
		Cache:   cache.New(cfg.Cache, dev, cfg.Costs),
		next:    4096, // keep address 0 unmapped to catch stray zero handles
		regions: make(map[string]Region),
	}
}

// Cores returns the configured core count.
func (m *Machine) Cores() int { return m.cfg.Cores }

// EnableObs turns on per-layer hardware attribution for this platform. It
// must be called before any thread is created: the tally is attached to each
// clock at NewThread time, so threads made earlier are not tracked. Enabling
// observability adds zero virtual time — tallies are host-side atomic adds.
func (m *Machine) EnableObs() {
	if m.obsTally == nil {
		m.obsTally = &sim.MemTally{}
	}
}

// ObsTally returns the platform's attribution tally, or nil when EnableObs
// was never called. sim.MemTally's Snapshot is nil-safe, so callers may use
// the result unconditionally.
func (m *Machine) ObsTally() *sim.MemTally { return m.obsTally }

// Alloc reserves size bytes of PMem address space under name, aligned to
// align (which must be a power of two; 0 means XPLine alignment). Allocation
// is append-only: regions persist across Crash and are never recycled, like
// a fixed platform memory map.
func (m *Machine) Alloc(name string, size, align uint64) Region {
	if align == 0 {
		align = uint64(m.Costs.XPLineSize)
	}
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	if _, exists := m.regions[name]; exists {
		panic(fmt.Sprintf("hw: region %q already allocated", name))
	}
	addr := (m.next + align - 1) &^ (align - 1)
	if addr+size > m.PMem.Capacity() {
		panic(fmt.Sprintf("hw: out of PMem allocating %q (%d bytes at %#x, capacity %#x)",
			name, size, addr, m.PMem.Capacity()))
	}
	m.next = addr + size
	r := Region{Name: name, Addr: addr, Size: size}
	m.regions[name] = r
	return r
}

// LookupRegion retrieves a previously allocated region; recovery code uses it
// to re-find its memory map after a crash.
func (m *Machine) LookupRegion(name string) (Region, bool) {
	m.allocMu.Lock()
	defer m.allocMu.Unlock()
	r, ok := m.regions[name]
	return r, ok
}

// FindOrAlloc finds the named region or, on a fresh machine, allocates it
// (see Alloc); found says which, i.e. whether there is prior state to
// recover. A store calls it for each of its regions, so that reopening it
// after a crash reuses the same memory map.
func (m *Machine) FindOrAlloc(name string, size, align uint64) (r Region, found bool) {
	if r, found = m.LookupRegion(name); !found {
		r = m.Alloc(name, size, align)
	}
	return r, found
}

// Crash simulates power failure. The platform freezes first — until Recover
// the cache refuses every store and flush and installs no line, so nothing a
// thread still running does reaches the media — then the cache applies its
// persistence-domain rule (cache.LLC.Crash). Nothing is stopped: software
// still running sees the frozen view, and stopping it is its own Close's job.
// Callers are responsible for discarding their DRAM-resident structures —
// that is the point of the exercise.
func (m *Machine) Crash() { m.Cache.Crash() }

// Recover boots the platform after a Crash: the cache comes up cold, the PMem
// device's volatile staging state — the XPBuffer combining window and the
// sequential-read tracker — resets so that post-reboot accesses cannot
// combine with (or ride the locality of) pre-crash ones, and the platform
// thaws. Thread contexts are not machine state: like every other DRAM
// structure they must be recreated after a crash — a thread created before
// Recover never stores again.
func (m *Machine) Recover() { m.Cache.Recover() }

// SetMemGate installs g as the persistence-operation gate on the platform's
// cache (nil removes it). The fault-injection harness uses the gate to number
// the operation stream and freeze the platform at a chosen crash point; see
// sim.MemGate.
func (m *Machine) SetMemGate(g sim.MemGate) { m.Cache.SetGate(g) }

// Crashed reports whether the machine is between Crash and Recover.
func (m *Machine) Crashed() bool { return m.Cache.Crashed() }

// Phase labels the write-path segments the paper's Figure 5(b) breaks down.
type Phase int

// Phases of a KV operation, for latency breakdown accounting. The first six
// are the paper's Figure 5(b) write-path segments; the rest label background
// and lifecycle work for the observability layer (appended so existing
// Breakdown indices are stable).
const (
	PhaseWAL Phase = iota
	PhaseLock
	PhaseIndex
	PhaseAppend
	PhaseFlushInstr
	PhaseOther
	PhaseSST      // storage-component (SSTable / persistent tree) access
	PhaseBgFlush  // background memtable flush
	PhaseSpill    // ImmZone → L0 spill
	PhaseCompact  // compaction (skiplist merge or LSM level merge)
	PhaseRecovery // post-crash recovery (scan, filter rebuild, index rebuild)
	PhaseSettle   // end-of-run quiesce (engine flush + XPBuffer drain)
	PhaseClient   // modelled client-side overhead per op
	numPhases
)

// NumPhases is the number of defined phases, exported for attribution code.
const NumPhases = int(numPhases)

var phaseNames = [numPhases]string{
	"wal", "lock", "index", "append", "flush", "other",
	"sst", "bgflush", "spill", "compact", "recovery", "settle", "client",
}

// String returns the phase's short name.
func (p Phase) String() string { return phaseNames[p] }

// Layer returns the attribution-layer index for this phase in a sim.MemTally.
// Layer 0 is reserved for unlabeled ("direct") work, so phases map to 1..N.
func (p Phase) Layer() int32 { return int32(p) + 1 }

// NumLayers is the number of attribution layers in use (direct + one per
// phase). Always ≤ sim.MaxLayers.
const NumLayers = NumPhases + 1

// LayerName names attribution layer i ("direct" for 0, the phase name after).
func LayerName(i int) string {
	if i <= 0 || i > NumPhases {
		return "direct"
	}
	return phaseNames[i-1]
}

// Breakdown is virtual nanoseconds accumulated per phase.
type Breakdown [numPhases]int64

// Add merges o into b.
func (b *Breakdown) Add(o Breakdown) {
	for i := range b {
		b[i] += o[i]
	}
}

// Total returns the sum across phases.
func (b Breakdown) Total() int64 {
	var t int64
	for _, v := range b {
		t += v
	}
	return t
}

// Fraction returns phase p's share of the total, or 0 when empty.
func (b Breakdown) Fraction(p Phase) float64 {
	t := b.Total()
	if t == 0 {
		return 0
	}
	return float64(b[p]) / float64(t)
}

// Sub returns the per-phase delta b - o, for span-style interval accounting.
func (b Breakdown) Sub(o Breakdown) Breakdown {
	var d Breakdown
	for i := range b {
		d[i] = b[i] - o[i]
	}
	return d
}

// Thread is one simulated execution context (a user thread pinned to a
// core, or a background thread). It owns a virtual clock, a deterministic
// RNG, and per-phase accounting.
type Thread struct {
	Clock *sim.Clock
	Core  int // core the thread is pinned to
	RNG   *sim.RNG
	costs *sim.CostModel

	// Scratch is host memory, not part of the model: buffers the engine a
	// thread calls into borrows for the length of one call, so that a call
	// allocates only what it returns. A thread runs one call at a time, and
	// whatever a call leaves in them means nothing to the next.
	Scratch struct{ Key, Entry, Enc []byte }

	phases Breakdown
}

// NewThread creates a thread pinned to core, wrapped into [0, Cores) — a
// negative core too.
func (m *Machine) NewThread(core int) *Thread {
	id := m.threadSeq.Add(1)
	n := m.cfg.Cores
	return &Thread{
		Clock: sim.NewClock(m.obsTally, m.Cache.Boot()),
		Core:  (core%n + n) % n,
		RNG:   sim.NewRNG(uint64(id) * 0x9e3779b97f4a7c15),
		costs: m.Costs,
	}
}

// ChargeDRAM charges n DRAM accesses to the thread.
func (t *Thread) ChargeDRAM(n int) { t.Clock.Advance(int64(n) * t.costs.DRAMAccess) }

// ChargeCPU charges n generic CPU work quanta.
func (t *Thread) ChargeCPU(n int) { t.Clock.Advance(int64(n) * t.costs.BranchOp) }

// ChargeAtomic charges one atomic read-modify-write.
func (t *Thread) ChargeAtomic() { t.Clock.Advance(t.costs.AtomicOp) }

// InPhase runs fn and attributes the virtual time it consumed to phase p.
// While fn runs, hardware events issued by this thread are tallied under the
// phase's attribution layer (restoring the previous label on return, so
// phases nest).
func (t *Thread) InPhase(p Phase, fn func()) {
	prev := t.Clock.SetLabel(p.Layer())
	start := t.Clock.Now()
	fn()
	t.phases[p] += t.Clock.Now() - start
	t.Clock.SetLabel(prev)
}

// AddPhase directly attributes ns virtual nanoseconds to phase p.
func (t *Thread) AddPhase(p Phase, ns int64) { t.phases[p] += ns }

// PhaseBreakdown returns the accumulated per-phase accounting.
func (t *Thread) PhaseBreakdown() Breakdown { return t.phases }
