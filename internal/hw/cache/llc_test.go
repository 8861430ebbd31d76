package cache

import (
	"bytes"
	"testing"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
	"cachekv/internal/util"
)

func newLLC(cfg Config) (*LLC, *pmem.Device) {
	cm := sim.DefaultCosts()
	dev := pmem.NewDevice(256<<20, cm)
	return New(cfg, dev, cm), dev
}

func smallCfg(domain Domain) Config {
	// 64 KiB, 4-way: tiny enough to force evictions quickly in tests.
	return Config{SizeBytes: 64 << 10, Ways: 4, Domain: domain}
}

func TestWriteReadThroughCache(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	var clk sim.Clock
	data := []byte("hello persistent caches")
	c.Write(&clk, 1000, data, DefaultPartition)
	got := make([]byte, len(data))
	c.Read(&clk, 1000, got, DefaultPartition)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestUnalignedWriteSpanningLines(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	var clk sim.Clock
	data := make([]byte, 300)
	for i := range data {
		data[i] = byte(i)
	}
	c.Write(&clk, 77, data, DefaultPartition) // crosses several line boundaries
	got := make([]byte, len(data))
	c.Read(&clk, 77, got, DefaultPartition)
	if !bytes.Equal(got, data) {
		t.Fatal("unaligned span corrupted")
	}
}

func TestDirtyLineNotVisibleToPMemUntilWriteback(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	c.Write(&clk, 4096, []byte("dirty"), DefaultPartition)
	raw := make([]byte, 5)
	dev.LoadRaw(4096, raw)
	if bytes.Equal(raw, []byte("dirty")) {
		t.Fatal("store reached media without writeback")
	}
	c.Flush(&clk, 4096, 5)
	dev.LoadRaw(4096, raw)
	if !bytes.Equal(raw, []byte("dirty")) {
		t.Fatal("clflush did not persist the line")
	}
}

func TestFlushOptKeepsLineResident(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	var clk sim.Clock
	c.Write(&clk, 4096, []byte("x"), DefaultPartition)
	c.FlushOpt(&clk, 4096, 1)
	present, dirty := c.Contains(4096)
	if !present || dirty {
		t.Fatalf("after clwb: present=%v dirty=%v, want present clean", present, dirty)
	}
	c.Flush(&clk, 4096, 1)
	if present, _ := c.Contains(4096); present {
		t.Fatal("clflush must invalidate")
	}
}

func TestCapacityEvictionWritesBack(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	// Dirty far more lines than the cache holds; evictions must push content
	// to the PMem.
	for i := 0; i < 4096; i++ {
		addr := uint64(i) * 64
		c.Write(&clk, addr, []byte{byte(i), byte(i >> 8)}, DefaultPartition)
	}
	st := c.Stats()
	if st.Writebacks == 0 {
		t.Fatal("no writebacks despite capacity pressure")
	}
	// Early lines must have been evicted and be readable from raw media.
	raw := make([]byte, 2)
	dev.LoadRaw(0, raw)
	if raw[0] != 0 || raw[1] != 0 {
		// line at addr 0 holds bytes {0,0}; check line 1 instead
	}
	dev.LoadRaw(64, raw)
	if raw[0] != 1 {
		t.Fatalf("evicted content not on media: %v", raw)
	}
}

func TestPartitionPseudoLocking(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	var clk sim.Clock
	part, err := c.Reserve(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	// Install pinned lines across the partition.
	pinned := make([]uint64, 0, 128)
	for i := 0; i < 128; i++ {
		addr := uint64(i) * 64
		c.Write(&clk, addr, []byte{0xAA}, part)
		pinned = append(pinned, addr)
	}
	// Blast the default partition with enough traffic to churn it many times.
	for i := 0; i < 1<<15; i++ {
		addr := uint64(1<<20) + uint64(i)*64
		c.Write(&clk, addr, []byte{1}, DefaultPartition)
	}
	for _, addr := range pinned {
		if present, _ := c.Contains(addr); !present {
			t.Fatalf("pinned line %#x was evicted by default-partition traffic", addr)
		}
		if p, ok := c.Holder(addr); !ok || p != part {
			t.Fatalf("pinned line %#x: Holder = %d, %v, want partition %d", addr, p, ok, part)
		}
	}
	last := uint64(1<<20) + uint64(1<<15-1)*64
	if p, ok := c.Holder(last); !ok || p != DefaultPartition {
		t.Fatalf("the last default-partition line: Holder = %d, %v", p, ok)
	}
	if _, ok := c.Holder(1 << 20); ok {
		t.Fatal("Holder finds the first default-partition line, which the churn evicted")
	}
}

// TestCleanAliasKeepsItsFill: a clean set-array line holds no bytes and reads
// the backing, so when a pinned partition holds the same line dirty and
// writes it back, the default partition's clean copy must first take the
// backing's bytes as its own, or it would start reading the pinned copy's.
// Three routes write a pinned line's backing: the overcommit of its
// partition, a FlushOpt over it and an eADR Crash's drain. After each, a
// default-partition read must return the fill, and the media the pinned
// store.
func TestCleanAliasKeepsItsFill(t *testing.T) {
	fill := bytes.Repeat([]byte{0xF1}, lineSize)
	store := bytes.Repeat([]byte{0x5B}, lineSize)
	for _, route := range []string{"overcommit", "FlushOpt", "Crash"} {
		t.Run(route, func(t *testing.T) {
			c, dev := newLLC(smallCfg(EADR))
			part, err := c.Reserve(16 << 10) // one way: 256 lines
			if err != nil {
				t.Fatal(err)
			}
			clk := sim.NewClock(nil, c.Boot())
			const line = 1 << 20
			dev.StoreRaw(line, fill)
			got := make([]byte, lineSize)
			c.Read(clk, line, got, DefaultPartition) // the clean copy
			c.Write(clk, line, store, part)          // the pinned dirty copy
			switch route {
			case "overcommit":
				// The line heads the partition's install order: the 257th
				// line installed writes it back.
				for i := uint64(1); i <= 256; i++ {
					c.Write(clk, line+i*lineSize, store, part)
				}
				if p, ok := c.Holder(line); !ok || p != DefaultPartition {
					t.Fatalf("after the overcommit the line is held by %d, %v; want the default partition only", p, ok)
				}
			case "FlushOpt":
				c.FlushOpt(clk, line, lineSize)
			case "Crash":
				c.Crash()
			}
			media := make([]byte, lineSize)
			dev.LoadRaw(line, media)
			if !bytes.Equal(media, store) {
				t.Fatalf("the %s did not write the pinned copy back: media reads %#x", route, media[0])
			}
			c.Read(clk, line, got, DefaultPartition)
			if !bytes.Equal(got, fill) {
				t.Fatalf("after the %s the default partition's clean copy reads %#x, want its fill %#x", route, got[0], fill[0])
			}
			if present, dirty := c.Contains(line); !present || dirty {
				t.Fatalf("after the %s: Contains = %v, %v; want the clean copy", route, present, dirty)
			}
		})
	}
}

func TestReserveExhaustion(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	// 4 ways total; reserving everything must fail (default needs >=1 way).
	if _, err := c.Reserve(c.SizeBytes()); err == nil {
		t.Fatal("reserving the whole cache should fail")
	}
	p, err := c.Reserve(c.SizeBytes() / 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.PartitionBytes(p); got < c.SizeBytes()/4 {
		t.Fatalf("partition too small: %d", got)
	}
}

func TestReleaseReturnsWays(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	before := c.PartitionBytes(DefaultPartition)
	p, err := c.Reserve(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	if c.PartitionBytes(DefaultPartition) >= before {
		t.Fatal("reserve did not shrink default partition")
	}
	c.Release(p)
	if c.PartitionBytes(DefaultPartition) != before {
		t.Fatal("release did not restore default partition")
	}
}

func TestNTWriteBypassesCache(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	data := make([]byte, 512)
	for i := range data {
		data[i] = byte(i * 3)
	}
	c.NTWrite(&clk, 8192, data)
	if present, _ := c.Contains(8192); present {
		t.Fatal("NT store installed a cacheline")
	}
	raw := make([]byte, len(data))
	dev.LoadRaw(8192, raw)
	if !bytes.Equal(raw, data) {
		t.Fatal("NT store content missing from media")
	}
}

func TestNTWriteFullLinesNoAmplification(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	before := dev.Snapshot()
	data := make([]byte, 1<<20) // 1 MiB aligned NT copy, like a copy-based flush
	c.NTWrite(&clk, 1<<20, data)
	dev.Flush(&clk)
	delta := dev.Snapshot().Sub(before)
	if delta.RMWEvicts != 0 {
		t.Fatalf("aligned NT copy caused %d RMWs", delta.RMWEvicts)
	}
	if wa := delta.WriteAmplification(); wa > 1.01 {
		t.Fatalf("aligned NT copy amplification %v", wa)
	}
}

func TestNTWriteUnalignedPreservesNeighbors(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	// Pre-persist neighbor bytes.
	edge := make([]byte, 64)
	for i := range edge {
		edge[i] = 0xEE
	}
	c.NTWrite(&clk, 0, edge)
	// Unaligned NT write inside the line must not clobber the rest.
	c.NTWrite(&clk, 10, []byte{1, 2, 3})
	raw := make([]byte, 64)
	dev.LoadRaw(0, raw)
	if raw[9] != 0xEE || raw[13] != 0xEE {
		t.Fatalf("NT edge write clobbered neighbors: % x", raw[:16])
	}
	if raw[10] != 1 || raw[12] != 3 {
		t.Fatalf("NT payload missing: % x", raw[8:16])
	}
}

func TestCrashEADRDrainsDirtyLines(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	c.Write(&clk, 4096, []byte("survive"), DefaultPartition)
	c.Crash()
	raw := make([]byte, 7)
	dev.LoadRaw(4096, raw)
	if !bytes.Equal(raw, []byte("survive")) {
		t.Fatalf("eADR crash lost dirty data: %q", raw)
	}
	if present, _ := c.Contains(4096); !present {
		t.Fatal("lines must stay readable until Recover")
	}
	c.Recover()
	if present, _ := c.Contains(4096); present {
		t.Fatal("cache must be cold after Recover")
	}
}

func TestCrashADRDropsDirtyLines(t *testing.T) {
	c, dev := newLLC(smallCfg(ADR))
	var clk sim.Clock
	// Persist a baseline value, then overwrite in cache without flushing.
	c.Write(&clk, 4096, []byte("old"), DefaultPartition)
	c.Flush(&clk, 4096, 3)
	c.Write(&clk, 4096, []byte("new"), DefaultPartition)
	c.Crash()
	raw := make([]byte, 3)
	dev.LoadRaw(4096, raw)
	if !bytes.Equal(raw, []byte("old")) {
		t.Fatalf("ADR crash preserved unflushed write: %q", raw)
	}
}

func TestDomainString(t *testing.T) {
	if ADR.String() != "ADR" || EADR.String() != "eADR" {
		t.Fatal("Domain.String wrong")
	}
}

func TestStatsHitMissAccounting(t *testing.T) {
	c, _ := newLLC(smallCfg(EADR))
	var clk sim.Clock
	c.Write(&clk, 0, make([]byte, 64), DefaultPartition) // miss (full line)
	c.Write(&clk, 0, []byte{1}, DefaultPartition)        // hit
	buf := make([]byte, 1)
	c.Read(&clk, 0, buf, DefaultPartition) // hit
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("hits=%d misses=%d, want 2/1", st.Hits, st.Misses)
	}
}

// TestNTWriteRaggedSpan pins the staged-edges path: a store that starts and
// ends inside cachelines keeps both neighbours (one of them visible only as a
// dirty cached line), lands every payload byte, and costs the device exactly
// the lines it covers.
func TestNTWriteRaggedSpan(t *testing.T) {
	c, dev := newLLC(smallCfg(EADR))
	var clk sim.Clock
	old := bytes.Repeat([]byte{0xEE}, 512)
	c.NTWrite(&clk, 0, old)
	c.Write(&clk, 64, []byte{0xD1, 0xD2}, DefaultPartition) // dirty, not yet on media
	before := dev.Snapshot()

	payload := make([]byte, 300)
	for i := range payload {
		payload[i] = byte(i)
	}
	c.NTWrite(&clk, 70, payload) // lines 1..5: ragged head, three whole lines, ragged tail

	want := append([]byte(nil), old...)
	want[64], want[65] = 0xD1, 0xD2
	copy(want[70:], payload)
	got := make([]byte, 512)
	c.Read(&clk, 0, got, DefaultPartition)
	if !bytes.Equal(got, want) {
		t.Fatalf("visible bytes after ragged NT store differ from the model")
	}
	dev.LoadRaw(0, got)
	if !bytes.Equal(got, want) {
		t.Fatalf("media bytes after ragged NT store differ from the model")
	}
	delta := dev.Snapshot().Sub(before)
	if delta.LineArrivals != 5 || delta.CallerWriteB != 5*64 {
		t.Fatalf("ragged 300 B store over 5 lines: %d arrivals, %d caller bytes", delta.LineArrivals, delta.CallerWriteB)
	}
}

// TestWriteAllocateNeverExposesAZeroedLine: a partial write to an absent line
// fetches the rest of the line from media before the line is installed, so a
// reader of the line's other bytes sees the media's bytes, never the zeros of
// a line installed ahead of its fill. The cache is a quarter of the range, so
// the writer's lines are evicted and missed again all the time.
func TestWriteAllocateNeverExposesAZeroedLine(t *testing.T) {
	c, dev := newLLC(Config{SizeBytes: 16 << 10, Ways: 4, Domain: EADR})
	const lines = 1024
	dev.StoreRaw(0, bytes.Repeat([]byte{0xA5}, lines*lineSize))
	done := make(chan struct{})
	go func() {
		defer close(done)
		var clk sim.Clock
		for round := 0; round < 100; round++ {
			for l := uint64(0); l < lines; l++ {
				c.Write(&clk, l*lineSize, []byte{0xA5}, DefaultPartition)
			}
		}
	}()
	var clk sim.Clock
	rng := sim.NewRNG(1)
	buf := make([]byte, lineSize-1)
	for reads := 0; ; reads++ {
		select {
		case <-done:
			t.Logf("%d reads", reads)
			return
		default:
		}
		addr := rng.Uint64n(lines)*lineSize + 1
		c.Read(&clk, addr, buf, DefaultPartition)
		for i, b := range buf {
			if b != 0xA5 {
				t.Fatalf("read %d: byte %#x reads %#x, media holds 0xa5", reads, addr+uint64(i), b)
			}
		}
	}
}

// TestNTWriteLeavesNoStaleLine: a load that misses while an NT store rewrites
// its line fills the line from the media. Once the store returns, no such fill
// may be left in the cache holding the old bytes — it would serve them until
// evicted (a scan reading a recycled ImmZone table while a flush NT-copies
// the next table over it left exactly that at e57b644).
func TestNTWriteLeavesNoStaleLine(t *testing.T) {
	c, _ := newLLC(Config{SizeBytes: 1 << 20, Ways: 16, Domain: EADR}) // holds the region: nothing is evicted
	const lines = 1024
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		var clk sim.Clock
		rng := sim.NewRNG(2)
		buf := make([]byte, 8)
		for {
			select {
			case <-stop:
				return
			default:
			}
			c.Read(&clk, rng.Uint64n(lines)*lineSize, buf, DefaultPartition)
		}
	}()
	defer func() { close(stop); <-done }()
	var clk sim.Clock
	region, line := make([]byte, lines*lineSize), make([]byte, lineSize)
	for round := byte(1); round <= 200; round++ {
		for i := range region {
			region[i] = round
		}
		c.NTWrite(&clk, 0, region)
		for l := uint64(0); l < lines; l++ {
			c.Read(&clk, l*lineSize, line, DefaultPartition)
			if line[0] != round || line[lineSize-1] != round {
				t.Fatalf("round %d: line %d reads %d after the NT store returned", round, l, line[0])
			}
		}
	}
}

// TestLLCAllocs pins the host cost of the line paths: a hit Read or Write,
// through the default partition or a pinned one, dirty or clean (read from
// the backing), allocates nothing, and nor do Contains, dropping or
// NT-storing a 4 KiB range, whether its lines are cached or not, or an NT
// store whose ragged edges merge cached lines.
func TestLLCAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	c, _ := newLLC(smallCfg(EADR))
	pin, err := c.Reserve(16 << 10)
	if err != nil {
		t.Fatal(err)
	}
	var clk sim.Clock
	buf := make([]byte, 48)
	page := make([]byte, 4096)
	const hot, clean, cold, pinned = 4096, 8192, 64 << 10, 1 << 20
	c.Write(&clk, hot, page[:128], DefaultPartition)
	c.Read(&clk, clean, page[:128], DefaultPartition)
	c.Write(&clk, pinned, page[:128], pin)
	for _, tc := range []struct {
		name string
		fn   func()
	}{
		{"Read hit", func() { c.Read(&clk, hot+40, buf, DefaultPartition) }},
		{"Read hit, clean", func() { c.Read(&clk, clean+40, buf, DefaultPartition) }},
		{"Contains", func() { c.Contains(hot); c.Contains(clean); c.Contains(pinned); c.Contains(cold + 4096) }},
		{"Write hit", func() { c.Write(&clk, hot+40, buf, DefaultPartition) }},
		{"pinned Read hit", func() { c.Read(&clk, pinned+40, buf, pin) }},
		{"pinned Write hit", func() { c.Write(&clk, pinned+40, buf, pin) }},
		{"Invalidate 4 KiB, cached", func() {
			c.Write(&clk, cold, page, DefaultPartition)
			c.Write(&clk, pinned+4096, page, pin)
			c.Invalidate(cold, 4096)
			c.Invalidate(pinned+4096, 4096)
		}},
		{"Invalidate 4 KiB, not cached", func() { c.Invalidate(cold+8192, 4096) }},
		{"NTWrite 4 KiB, cached", func() {
			c.Write(&clk, cold, page, DefaultPartition)
			c.NTWrite(&clk, cold, page)
		}},
		{"NTWrite 4 KiB, ragged", func() { c.NTWrite(&clk, cold+8192+3, page[:4000]) }},
		{"NTWrite 4 KiB, ragged over cached edges", func() {
			c.Write(&clk, cold+16384, buf, DefaultPartition)
			c.Read(&clk, cold+16384+4032, buf, DefaultPartition)
			c.Write(&clk, pinned+8192, buf, pin)
			c.Read(&clk, pinned+8192+4032, buf, pin)
			c.NTWrite(&clk, cold+16384+3, page[:4090])
			c.NTWrite(&clk, pinned+8192+3, page[:4090])
		}},
	} {
		if n := testing.AllocsPerRun(100, tc.fn); n != 0 {
			t.Errorf("%s: %v allocations, want 0", tc.name, n)
		}
	}
}
