package hw

import (
	"bytes"
	"testing"

	"cachekv/internal/hw/cache"
)

func testCfg(domain cache.Domain) Config {
	cfg := DefaultConfig()
	cfg.PMemBytes = 64 << 20
	cfg.Cache = cache.Config{SizeBytes: 256 << 10, Ways: 8, Domain: domain}
	return cfg
}

func TestAllocRegions(t *testing.T) {
	m := NewMachine(testCfg(cache.EADR))
	a := m.Alloc("pool", 1<<20, 0)
	b := m.Alloc("wal", 1<<20, 4096)
	if a.Addr == 0 {
		t.Fatal("region at address zero")
	}
	if b.Addr < a.End() {
		t.Fatalf("regions overlap: %+v %+v", a, b)
	}
	if b.Addr%4096 != 0 {
		t.Fatalf("alignment ignored: %#x", b.Addr)
	}
	if r, ok := m.LookupRegion("pool"); !ok || r != a {
		t.Fatal("LookupRegion failed")
	}
	if _, ok := m.LookupRegion("missing"); ok {
		t.Fatal("LookupRegion invented a region")
	}
}

func TestFindOrAlloc(t *testing.T) {
	m := NewMachine(testCfg(cache.EADR))
	a, found := m.FindOrAlloc("region-x", 1<<20, 4096)
	if found {
		t.Fatal("a fresh machine found a region")
	}
	b, found := m.FindOrAlloc("region-x", 1<<20, 4096)
	if !found || a != b {
		t.Fatalf("second call: %+v, found %v; want %+v, found", b, found, a)
	}
	if c, _ := m.FindOrAlloc("region-y", 1<<20, 4096); c == a {
		t.Fatal("distinct names shared a region")
	}
}

func TestAllocDuplicatePanics(t *testing.T) {
	m := NewMachine(testCfg(cache.EADR))
	m.Alloc("x", 100, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Alloc did not panic")
		}
	}()
	m.Alloc("x", 100, 0)
}

func TestCrashRecoverCycle(t *testing.T) {
	m := NewMachine(testCfg(cache.EADR))
	r := m.Alloc("data", 4096, 0)
	th := m.NewThread(0)
	m.Cache.Write(th.Clock, r.Addr, []byte("persisted"), cache.DefaultPartition)
	if m.Crashed() {
		t.Fatal("fresh machine reports crashed")
	}
	m.Crash()
	if !m.Crashed() {
		t.Fatal("Crash did not set flag")
	}
	// eADR: the dirty line drained to PMem.
	raw := make([]byte, 9)
	m.PMem.LoadRaw(r.Addr, raw)
	if !bytes.Equal(raw, []byte("persisted")) {
		t.Fatalf("eADR crash lost data: %q", raw)
	}
	m.Recover()
	if m.Crashed() {
		t.Fatal("Recover did not clear flag")
	}
	// Regions survive the crash (fixed memory map).
	if _, ok := m.LookupRegion("data"); !ok {
		t.Fatal("region lost across crash")
	}
}

func TestThreadCorePinning(t *testing.T) {
	cfg := testCfg(cache.EADR)
	cfg.Cores = 4
	m := NewMachine(cfg)
	if th := m.NewThread(6); th.Core != 2 {
		t.Fatalf("core wrap: got %d, want 2", th.Core)
	}
	if m.Cores() != 4 {
		t.Fatalf("Cores() = %d", m.Cores())
	}
}

func TestThreadCharges(t *testing.T) {
	m := NewMachine(testCfg(cache.EADR))
	th := m.NewThread(0)
	th.ChargeDRAM(3)
	want := 3 * m.Costs.DRAMAccess
	if th.Clock.Now() != want {
		t.Fatalf("DRAM charge = %d, want %d", th.Clock.Now(), want)
	}
	th.ChargeAtomic()
	th.ChargeCPU(10)
	if th.Clock.Now() <= want {
		t.Fatal("atomic/CPU charges missing")
	}
}

func TestPhaseBreakdown(t *testing.T) {
	m := NewMachine(testCfg(cache.EADR))
	th := m.NewThread(0)
	th.InPhase(PhaseLock, func() { th.ChargeDRAM(2) })
	th.InPhase(PhaseIndex, func() { th.ChargeDRAM(1) })
	th.AddPhase(PhaseOther, 50)
	b := th.PhaseBreakdown()
	if b[PhaseLock] != 2*m.Costs.DRAMAccess {
		t.Fatalf("lock phase = %d", b[PhaseLock])
	}
	if b[PhaseIndex] != m.Costs.DRAMAccess {
		t.Fatalf("index phase = %d", b[PhaseIndex])
	}
	if b.Total() != 3*m.Costs.DRAMAccess+50 {
		t.Fatalf("total = %d", b.Total())
	}
	if f := b.Fraction(PhaseLock); f <= 0 || f >= 1 {
		t.Fatalf("fraction = %v", f)
	}
	var sum Breakdown
	sum.Add(b)
	sum.Add(b)
	if sum.Total() != 2*b.Total() {
		t.Fatal("Breakdown.Add wrong")
	}
	if PhaseWAL.String() != "wal" || PhaseFlushInstr.String() != "flush" {
		t.Fatal("phase names wrong")
	}
}

func TestBreakdownEmptyFraction(t *testing.T) {
	var b Breakdown
	if b.Fraction(PhaseLock) != 0 {
		t.Fatal("empty breakdown fraction should be 0")
	}
}
