package cache_test

import (
	"bytes"
	"fmt"
	"testing"

	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// The address spaces the differential stream works in: default-partition
// traffic over eight times the cache, and two pinned ranges, far apart, each
// three times the size of its partition (one way), so pinned writes
// overcommit. The second one straddles a 64 KiB boundary.
const (
	diffCacheBytes = 64 << 10
	diffPinBytes   = 8 << 10
	diffDevBytes   = 8 << 20
)

var diffSpaces = [3]struct{ lo, size uint64 }{
	{0, 512 << 10},
	{1 << 20, 24 << 10},
	{5<<20 - 8<<10, 24 << 10},
}

// diffSide is one cache under test with its own device, tally, the clock of
// the current boot and that of the boot before (nil until the first Recover).
type diffSide struct {
	dev        *pmem.Device
	clk, stale *sim.Clock
	tally      *sim.MemTally
}

func newDiffSide() diffSide {
	s := diffSide{dev: pmem.NewDevice(diffDevBytes, nil), tally: &sim.MemTally{}}
	s.reboot(0)
	return s
}

// reboot keeps the current clock as the stale one and starts a clock of boot.
func (s *diffSide) reboot(boot uint64) {
	s.stale, s.clk = s.clk, sim.NewClock(s.tally, boot)
}

// TestDifferentialAgainstReference drives the flat-table LLC and the
// reference implementation it replaced (llc_ref_test.go) with one seeded
// random operation stream — ragged writes and reads under the default and two
// pinned partitions, NT stores, clflush, clwb, invalidate, release and
// re-reserve, power failure, operations between it and the recovery, and
// operations from a thread of the boot before — and requires, after every
// operation, the same bytes returned, the same clocks, cache counters, device
// counters, media bytes over the touched range and tally cells, under both
// domains.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, domain := range []cache.Domain{cache.ADR, cache.EADR} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%v/seed%d", domain, seed), func(t *testing.T) {
				runDifferential(t, domain, seed, 12000)
			})
		}
	}
}

func runDifferential(t *testing.T, domain cache.Domain, seed uint64, ops int) {
	g, w := newDiffSide(), newDiffSide()
	got := cache.New(cache.Config{SizeBytes: diffCacheBytes, Ways: 8, Domain: domain}, g.dev, nil)
	want := New(Config{SizeBytes: diffCacheBytes, Ways: 8, Domain: Domain(domain)}, w.dev, nil)
	rng := sim.NewRNG(seed)

	// pins[k] is the partition pinned over diffSpaces[k+1], -1 while released.
	var pins [2]cache.PartitionID
	reserve := func(k int) {
		gp, gerr := got.Reserve(diffPinBytes)
		wp, werr := want.Reserve(diffPinBytes)
		if int(gp) != int(wp) || (gerr == nil) != (werr == nil) {
			t.Fatalf("Reserve: got %d, %v; want %d, %v", gp, gerr, wp, werr)
		}
		pins[k] = gp
		if gerr != nil {
			pins[k] = -1
		}
	}
	reserve(0)
	reserve(1)

	gbuf, wbuf := make([]byte, 8<<10), make([]byte, 8<<10)
	data := make([]byte, 8<<10)
	crashed := false
	for op := 0; op < ops; op++ {
		// One op in eight, once there was a recovery, is a thread of the boot
		// before.
		gclk, wclk := g.clk, w.clk
		if g.stale != nil && rng.Uint64n(8) == 0 {
			gclk, wclk = g.stale, w.stale
		}
		// A label per op, so that every tally cell sees traffic.
		label := int32(rng.Uint64n(4))
		gclk.SetLabel(label)
		wclk.SetLabel(label)

		space := int(rng.Uint64n(3))
		part := cache.DefaultPartition
		if space > 0 && pins[space-1] >= 0 && rng.Uint64n(4) != 0 {
			part = pins[space-1]
		}
		sp := diffSpaces[space]
		n := 1 + int(rng.Uint64n(300))
		if rng.Uint64n(8) == 0 {
			n = 64 * (1 + int(rng.Uint64n(64))) // whole lines, up to 4 KiB
		}
		n = min(n, int(sp.size))
		addr := sp.lo + rng.Uint64n(sp.size-uint64(n)+1)
		if rng.Uint64n(3) == 0 {
			addr &^= 63
		}
		for i := range data[:n] {
			data[i] = byte(rng.Uint64())
		}

		var what string
		switch k := rng.Uint64n(100); {
		case crashed && k < 6:
			// About sixteen operations run between a power failure and the
			// recovery.
			what = "Recover"
			got.Recover()
			want.Recover()
			crashed = false
			g.reboot(got.Boot())
			w.reboot(want.Boot())
			addr, n = 0, 6<<20
		case k < 40:
			what = "Write"
			got.Write(gclk, addr, data[:n], part)
			want.Write(wclk, addr, data[:n], PartitionID(part))
		case k < 75:
			what = "Read"
			got.Read(gclk, addr, gbuf[:n], part)
			want.Read(wclk, addr, wbuf[:n], PartitionID(part))
			if !bytes.Equal(gbuf[:n], wbuf[:n]) {
				t.Fatalf("op %d: Read(%#x, %d, p%d) returned different bytes", op, addr, n, part)
			}
		case k < 82:
			what = "NTWrite"
			got.NTWrite(gclk, addr, data[:n])
			want.NTWrite(wclk, addr, data[:n])
		case k < 87:
			what = "Flush"
			got.Flush(gclk, addr, n)
			want.Flush(wclk, addr, n)
		case k < 92:
			what = "FlushOpt"
			got.FlushOpt(gclk, addr, n)
			want.FlushOpt(wclk, addr, n)
		case k < 97:
			what = "Invalidate"
			got.Invalidate(addr, n)
			want.Invalidate(addr, n)
		case k < 99:
			what = "Release/Reserve"
			k := int(rng.Uint64n(2))
			if pins[k] >= 0 {
				got.Release(pins[k])
				want.Release(PartitionID(pins[k]))
				pins[k] = -1
			} else {
				reserve(k)
			}
		default:
			what = "Crash"
			got.Crash()
			want.Crash()
			crashed = true
			addr, n = 0, 6<<20 // compare every space
		}

		where := fmt.Sprintf("op %d: %s(%#x, %d, p%d, boot %d)", op, what, addr, n, part, gclk.Boot())
		if gn, wn := gclk.Now(), wclk.Now(); gn != wn {
			t.Fatalf("%s: clock %d, want %d", where, gn, wn)
		}
		if gs, ws := got.Stats(), want.Stats(); gs != cache.Stats(ws) {
			t.Fatalf("%s: stats %+v, want %+v", where, gs, ws)
		}
		if gs, ws := g.dev.Snapshot(), w.dev.Snapshot(); gs != ws {
			t.Fatalf("%s: device counters %+v, want %+v", where, gs, ws)
		}
		if gs, ws := g.tally.Snapshot(), w.tally.Snapshot(); gs != ws {
			t.Fatalf("%s: tally %+v, want %+v", where, gs, ws)
		}
		gm, wm := make([]byte, n), make([]byte, n)
		g.dev.LoadRaw(addr, gm)
		w.dev.LoadRaw(addr, wm)
		if !bytes.Equal(gm, wm) {
			t.Fatalf("%s: media bytes differ", where)
		}
		gp, gd := got.Contains(addr)
		if wp, wd := want.Contains(addr); gp != wp || gd != wd {
			t.Fatalf("%s: Contains = %v, %v; want %v, %v", where, gp, gd, wp, wd)
		}
	}
	if got.Stats().PostCrashStores == 0 {
		t.Fatal("the stream refused no store: no operation ran after a power failure")
	}
}
