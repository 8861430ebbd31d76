package pmem_test

import (
	"bytes"
	"fmt"
	"testing"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// TestDifferentialXPBufferAgainstReference drives the staging table and the
// device it replaced (device_ref_test.go) with one seeded stream of arriving
// lines — runs that complete XPLines, runs that stay partial, XPLines staged
// again after completing (whose stale FIFO slot evicts them early), media
// reads, drains and power cycles — under a window small enough to evict all
// the time, and requires the same clock, counters, tally cells and media
// bytes after every operation.
func TestDifferentialXPBufferAgainstReference(t *testing.T) {
	for _, window := range []int64{1, 7, 64} {
		for seed := uint64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("window%d/seed%d", window, seed), func(t *testing.T) {
				cm := sim.DefaultCosts()
				cm.XPBufferLines = window
				got, want := pmem.NewDevice(4<<20, cm), NewDevice(4<<20, cm)
				var gtally, wtally sim.MemTally
				gclk, wclk := sim.NewClock(&gtally, 0), sim.NewClock(&wtally, 0)
				rng := sim.NewRNG(seed)
				data := make([]byte, 4096)
				gbuf, wbuf := make([]byte, 4096), make([]byte, 4096)
				for op := 0; op < 20000; op++ {
					label := int32(rng.Uint64n(3))
					gclk.SetLabel(label)
					wclk.SetLabel(label)
					// A hot range the window can cover and a cold one it cannot.
					span := uint64(16 << 10)
					if rng.Uint64n(4) == 0 {
						span = 2 << 20
					}
					lines := 1 + rng.Uint64n(8)
					if rng.Uint64n(16) == 0 {
						lines = 1 + rng.Uint64n(64)
					}
					addr := rng.Uint64n(span/64-lines+1) * 64
					n := int(lines * 64)
					for i := range data[:n] {
						data[i] = byte(rng.Uint64())
					}
					var what string
					switch k := rng.Uint64n(100); {
					case k < 45:
						what = "WriteLines"
						got.WriteLines(gclk, addr, data[:n])
						want.WriteLines(wclk, addr, data[:n])
					case k < 85:
						what = "WriteLinesPipelined"
						got.WriteLinesPipelined(gclk, addr, data[:n])
						want.WriteLinesPipelined(wclk, addr, data[:n])
					case k < 95:
						what = "Read"
						n -= int(rng.Uint64n(64))
						got.Read(gclk, addr+7, gbuf[:n])
						want.Read(wclk, addr+7, wbuf[:n])
						if !bytes.Equal(gbuf[:n], wbuf[:n]) {
							t.Fatalf("op %d: Read(%#x, %d) returned different bytes", op, addr+7, n)
						}
					case k < 98:
						what = "Flush"
						got.Flush(gclk)
						want.Flush(wclk)
					default:
						what = "PowerCycle"
						got.PowerCycle()
						want.PowerCycle()
					}
					where := fmt.Sprintf("op %d: %s(%#x, %d)", op, what, addr, n)
					if g, w := gclk.Now(), wclk.Now(); g != w {
						t.Fatalf("%s: clock %d, want %d", where, g, w)
					}
					if g, w := got.Snapshot(), want.Snapshot(); g != pmem.CountersSnapshot(w) {
						t.Fatalf("%s: counters %+v, want %+v", where, g, w)
					}
					if g, w := gtally.Snapshot(), wtally.Snapshot(); g != w {
						t.Fatalf("%s: tally %+v, want %+v", where, g, w)
					}
					got.LoadRaw(addr, gbuf[:n])
					want.LoadRaw(addr, wbuf[:n])
					if !bytes.Equal(gbuf[:n], wbuf[:n]) {
						t.Fatalf("%s: media bytes differ", where)
					}
				}
			})
		}
	}
}
