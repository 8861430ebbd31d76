package pmem

import (
	"bytes"
	"testing"

	"cachekv/internal/hw/sim"
)

func newDev() *Device { return NewDevice(64<<20, sim.DefaultCosts()) }

func TestStoreLoadRoundTrip(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	data := make([]byte, 256)
	for i := range data {
		data[i] = byte(i)
	}
	d.WriteLines(&clk, 4096, data)
	got := make([]byte, 256)
	d.Read(&clk, 4096, got)
	if !bytes.Equal(got, data) {
		t.Fatal("read-back mismatch")
	}
}

func TestWriteSpansChunkBoundary(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	data := make([]byte, 4096)
	for i := range data {
		data[i] = byte(i * 7)
	}
	addr := uint64(chunkSize - 2048) // straddles the 1 MiB chunk boundary
	d.WriteLines(&clk, addr, data)
	got := make([]byte, len(data))
	d.Read(&clk, addr, got)
	if !bytes.Equal(got, data) {
		t.Fatal("chunk-boundary write corrupted")
	}
}

func TestFullXPLineWriteIsAmplificationFree(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	// Write 1000 full, aligned XPLines sequentially.
	line := make([]byte, 256)
	for i := 0; i < 1000; i++ {
		d.WriteLines(&clk, uint64(i)*256, line)
	}
	d.Flush(&clk)
	s := d.Snapshot()
	if s.RMWEvicts != 0 {
		t.Fatalf("sequential full-line writes caused %d RMWs", s.RMWEvicts)
	}
	if wa := s.WriteAmplification(); wa != 1.0 {
		t.Fatalf("write amplification = %v, want 1.0", wa)
	}
	// 4 lines per XPLine: 3 of 4 arrivals combine.
	if hr := s.WriteHitRatio(); hr < 0.74 || hr > 0.76 {
		t.Fatalf("write hit ratio = %v, want 0.75", hr)
	}
}

func TestScatteredSmallWritesAmplify(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	rng := sim.NewRNG(1)
	line := make([]byte, 64)
	// Write isolated 64 B lines at random XPLine-spread addresses: nearly
	// every arrival misses the buffer and every eviction is a partial RMW.
	for i := 0; i < 5000; i++ {
		addr := (rng.Uint64n(1 << 16)) * 256
		d.WriteLines(&clk, addr, line)
	}
	d.Flush(&clk)
	s := d.Snapshot()
	if hr := s.WriteHitRatio(); hr > 0.2 {
		t.Fatalf("scattered writes should rarely hit; ratio = %v", hr)
	}
	if wa := s.WriteAmplification(); wa < 3.5 {
		t.Fatalf("scattered 64 B writes should amplify ~4x; got %v", wa)
	}
	if s.RMWEvicts == 0 {
		t.Fatal("expected read-modify-write evictions")
	}
}

func TestSequentialLinesCombine(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	line := make([]byte, 64)
	// Ascending 64 B lines (what ordered clflush produces): every group of 4
	// combines into one XPLine.
	for i := 0; i < 4000; i++ {
		d.WriteLines(&clk, uint64(i)*64, line)
	}
	d.Flush(&clk)
	s := d.Snapshot()
	if hr := s.WriteHitRatio(); hr < 0.74 {
		t.Fatalf("sequential line stream should combine; ratio = %v", hr)
	}
	if wa := s.WriteAmplification(); wa > 1.01 {
		t.Fatalf("sequential line stream amplified: %v", wa)
	}
}

func TestReadChargesLatency(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	buf := make([]byte, 256)
	d.Read(&clk, 0, buf)
	if clk.Now() == 0 {
		t.Fatal("read charged no latency")
	}
	before := clk.Now()
	d.Read(&clk, 0, nil)
	if clk.Now() != before {
		t.Fatal("empty read should charge nothing")
	}
}

func TestSequentialReadCheaperThanRandom(t *testing.T) {
	cm := sim.DefaultCosts()
	d := NewDevice(64<<20, cm)
	var seq, rnd sim.Clock
	buf := make([]byte, 256)
	for i := 0; i < 100; i++ {
		d.Read(&seq, uint64(i)*256, buf)
	}
	rng := sim.NewRNG(3)
	for i := 0; i < 100; i++ {
		d.Read(&rnd, rng.Uint64n(1<<16)*256, buf)
	}
	if seq.Now() >= rnd.Now() {
		t.Fatalf("sequential reads (%d) should be cheaper than random (%d)", seq.Now(), rnd.Now())
	}
}

func TestUnalignedWritePanics(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned WriteLines did not panic")
		}
	}()
	d.WriteLines(&clk, 3, make([]byte, 64))
}

func TestCountersSnapshotSub(t *testing.T) {
	d := newDev()
	var clk sim.Clock
	d.WriteLines(&clk, 0, make([]byte, 512))
	before := d.Snapshot()
	d.WriteLines(&clk, 4096, make([]byte, 256))
	delta := d.Snapshot().Sub(before)
	if delta.CallerWriteB != 256 {
		t.Fatalf("delta caller bytes = %d, want 256", delta.CallerWriteB)
	}
	if delta.LineArrivals != 4 {
		t.Fatalf("delta line arrivals = %d, want 4", delta.LineArrivals)
	}
}

func TestXPBufferEvictionUnderPressure(t *testing.T) {
	cm := sim.DefaultCosts()
	d := NewDevice(64<<20, cm)
	var clk sim.Clock
	line := make([]byte, 64)
	// Touch far more XPLines than the buffer holds without completing any:
	// evictions must occur, all partial.
	n := d.buf.window * 4
	for i := 0; i < n; i++ {
		d.WriteLines(&clk, uint64(i)*256, line)
	}
	s := d.Snapshot()
	if s.XPLineEvicts == 0 {
		t.Fatal("no evictions despite buffer overflow")
	}
	if s.RMWEvicts != s.XPLineEvicts {
		t.Fatalf("all evictions should be partial: rmw=%d evicts=%d", s.RMWEvicts, s.XPLineEvicts)
	}
}

func TestWriteHitRatioEmpty(t *testing.T) {
	var s CountersSnapshot
	if s.WriteHitRatio() != 0 || s.WriteAmplification() != 0 {
		t.Fatal("empty snapshot ratios should be zero")
	}
}
