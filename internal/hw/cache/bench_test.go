package cache

import (
	"testing"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

func BenchmarkCacheWrite64(b *testing.B) {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(256<<20, cm)
	c := New(DefaultConfig(), dev, cm)
	var clk sim.Clock
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(&clk, uint64(i%1000000)*64, buf, DefaultPartition)
	}
}

func BenchmarkNTWrite4K(b *testing.B) {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(256<<20, cm)
	c := New(DefaultConfig(), dev, cm)
	var clk sim.Clock
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NTWrite(&clk, uint64(i%10000)*4096, buf)
	}
}

// BenchmarkRead4KCold reads 4 KiB blocks that miss: every line is fetched
// from the media and installed, evicting as the working set cycles through a
// cache a quarter of its size.
func BenchmarkRead4KCold(b *testing.B) {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(256<<20, cm)
	c := New(DefaultConfig(), dev, cm)
	var clk sim.Clock
	buf := make([]byte, 4096)
	b.SetBytes(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(&clk, uint64(i%(144<<20/4096))*4096, buf, DefaultPartition)
	}
}

// BenchmarkNTWrite2MiB streams 2 MiB non-temporal copies, the size of a
// flushed table, over a range the cache has never held.
func BenchmarkNTWrite2MiB(b *testing.B) {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(256<<20, cm)
	c := New(DefaultConfig(), dev, cm)
	var clk sim.Clock
	buf := make([]byte, 2<<20)
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.NTWrite(&clk, uint64(i%64)*uint64(len(buf)), buf)
	}
}

// BenchmarkPinnedWrite64 writes whole lines into a pinned 12 MiB partition,
// the shape of a sub-MemTable append.
func BenchmarkPinnedWrite64(b *testing.B) {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(256<<20, cm)
	c := New(DefaultConfig(), dev, cm)
	part, err := c.Reserve(12 << 20)
	if err != nil {
		b.Fatal(err)
	}
	var clk sim.Clock
	buf := make([]byte, 64)
	b.SetBytes(64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Write(&clk, 1<<20+uint64(i%(12<<20/64))*64, buf, part)
	}
}
