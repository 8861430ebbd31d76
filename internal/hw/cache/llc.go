// Package cache models the shared last-level CPU cache that the eADR-enabled
// platform turns into persistent storage. It is a set-associative write-back
// cache of 64 B lines with:
//
//   - per-set LRU replacement (the source of the paper's Figure 3(c) problem:
//     capacity evictions push isolated 64 B lines into the PMem and reawaken
//     write amplification);
//   - Intel CAT-style way partitioning with pseudo-locking — a reserved
//     partition's lines are never victims of ordinary replacement, which is
//     how CacheKV pins its sub-MemTable pool;
//   - explicit clflush / clwb / invalidate, and a non-temporal store path
//     that bypasses the cache entirely;
//   - a persistence-domain switch: on simulated power failure, eADR drains
//     every dirty line into the PMem device while ADR discards them.
//
// Dirty lines hold their own 64-byte payload; the PMem backing array only
// sees bytes when a line is written back. That separation is what makes
// crash simulation honest: under ADR, un-flushed stores genuinely vanish.
package cache

import (
	"fmt"
	"sync"

	"cachekv/internal/hw/pmem"
	"cachekv/internal/hw/sim"
)

// Domain selects the persistence domain of the platform.
type Domain int

const (
	// ADR keeps only the memory controller write-pending queue and the PMem
	// in the persistence domain: CPU caches are volatile and software must
	// clflush/clwb explicitly.
	ADR Domain = iota
	// EADR extends the persistence domain up to the CPU caches: dirty lines
	// survive power failure and flush instructions become unnecessary.
	EADR
)

func (d Domain) String() string {
	if d == EADR {
		return "eADR"
	}
	return "ADR"
}

const lineSize = 64

// PartitionID names a CAT allocation class. DefaultPartition is the shared
// pool every ordinary access uses.
type PartitionID int

// DefaultPartition is the unreserved portion of the cache.
const DefaultPartition PartitionID = 0

type line struct {
	addr      uint64 // line-aligned address; valid only when present
	present   bool
	dirty     bool
	partition PartitionID
	lruTick   uint64
	data      [lineSize]byte
}

type set struct {
	mu   sync.Mutex
	ways []line
	tick uint64
}

// Stats counts cache events.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64 // capacity evictions (dirty or clean)
	Writebacks int64 // dirty lines pushed to PMem by eviction
	Flushes    int64 // lines written back by explicit clflush/clwb
}

// partition describes a contiguous run of ways granted to one allocation
// class, mirroring a CAT way mask.
type partition struct {
	firstWay, nWays int
	locked          bool // pseudo-locked: immune to ordinary replacement
}

// lockedRegion is the storage behind a pseudo-locked partition. Cache
// Pseudo-Locking guarantees that nothing else can evict the locked lines and
// the locked working set fits by construction, so the model keeps them in a
// dedicated exact-fit store instead of the hashed set array. Should a caller
// overcommit, the oldest line is written back FIFO (and counted) rather than
// corrupting anything.
type lockedRegion struct {
	mu       sync.Mutex
	capLines int
	lines    map[uint64]*line
	free     []*line // lines not in use: dropped ones, and the rest of the last chunk
	fifo     []uint64
	overflow int64
}

// lockedChunkLines is how many lines a locked region allocates at a time.
const lockedChunkLines = 256

// newLine returns a clean line for base, not yet in lr.lines; lr.mu held.
func (lr *lockedRegion) newLine(base uint64) *line {
	if len(lr.free) == 0 {
		chunk := make([]line, lockedChunkLines)
		for i := range chunk {
			lr.free = append(lr.free, &chunk[i])
		}
	}
	ln := lr.free[len(lr.free)-1]
	lr.free = lr.free[:len(lr.free)-1]
	*ln = line{addr: base, present: true}
	return ln
}

// drop removes base's line, if there is one, and keeps it for reuse; lr.mu held.
func (lr *lockedRegion) drop(base uint64) {
	if ln, ok := lr.lines[base]; ok {
		delete(lr.lines, base)
		lr.free = append(lr.free, ln)
	}
}

// LLC is the modelled last-level cache.
type LLC struct {
	costs  *sim.CostModel
	dev    *pmem.Device
	domain Domain

	nSets int
	nWays int
	sets  []set

	partMu     sync.Mutex
	partitions []partition
	locked     map[PartitionID]*lockedRegion

	// gate, when non-nil, intercepts every persistence-plane operation the
	// cache accepts (see sim.MemGate). The fault-injection harness installs
	// it to number crash-point events and to freeze the platform at a chosen
	// one; ordinary operation leaves it nil.
	gateMu sync.RWMutex
	gate   sim.MemGate

	statMu sync.Mutex
	stats  Stats
}

// Config sizes the cache. The paper's testbed LLC is 36 MB with (typically)
// 12 ways; experiments that restrict CacheKV to 3-30 MB do so with CAT
// partitions, not by shrinking the cache.
type Config struct {
	SizeBytes int
	Ways      int
	Domain    Domain
}

// DefaultConfig returns the paper's 36 MB, 12-way LLC in eADR mode.
func DefaultConfig() Config { return Config{SizeBytes: 36 << 20, Ways: 12, Domain: EADR} }

// New creates an LLC bound to the given PMem device.
func New(cfg Config, dev *pmem.Device, cm *sim.CostModel) *LLC {
	if cm == nil {
		cm = sim.DefaultCosts()
	}
	if cfg.Ways <= 0 {
		cfg.Ways = 12
	}
	nSets := cfg.SizeBytes / (cfg.Ways * lineSize)
	if nSets < 1 {
		nSets = 1
	}
	c := &LLC{
		costs:  cm,
		dev:    dev,
		domain: cfg.Domain,
		nSets:  nSets,
		nWays:  cfg.Ways,
		sets:   make([]set, nSets),
		// Partition 0 initially owns every way.
		partitions: []partition{{firstWay: 0, nWays: cfg.Ways}},
		locked:     make(map[PartitionID]*lockedRegion),
	}
	for i := range c.sets {
		c.sets[i].ways = make([]line, cfg.Ways)
	}
	return c
}

// Domain returns the configured persistence domain.
func (c *LLC) Domain() Domain { return c.domain }

// SetGate installs g as the persistence-operation gate (nil removes it).
// Crash-schedule exploration uses the gate to number and suppress operations;
// see sim.MemGate for the interception contract.
func (c *LLC) SetGate(g sim.MemGate) {
	c.gateMu.Lock()
	c.gate = g
	c.gateMu.Unlock()
}

// gateOp consults the installed gate, returning the permitted byte count
// (n when no gate is installed).
func (c *LLC) gateOp(op sim.MemOp, addr uint64, n int) int {
	c.gateMu.RLock()
	g := c.gate
	c.gateMu.RUnlock()
	if g == nil {
		return n
	}
	return g(op, addr, n)
}

// SizeBytes returns the total cache capacity.
func (c *LLC) SizeBytes() int { return c.nSets * c.nWays * lineSize }

// PartitionBytes returns the capacity granted to partition p.
func (c *LLC) PartitionBytes(p PartitionID) int {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	return c.partitions[p].nWays * c.nSets * lineSize
}

// Reserve carves a pseudo-locked CAT partition of at least sizeBytes out of
// the default partition's ways and returns its ID. Lines installed under the
// returned partition are never victims of ordinary replacement. It fails if
// the default partition would drop below one way.
func (c *LLC) Reserve(sizeBytes int) (PartitionID, error) {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	perWay := c.nSets * lineSize
	ways := (sizeBytes + perWay - 1) / perWay
	if ways < 1 {
		ways = 1
	}
	def := &c.partitions[DefaultPartition]
	if def.nWays-ways < 1 {
		return 0, fmt.Errorf("cache: cannot reserve %d ways, only %d available", ways, def.nWays-1)
	}
	// Take ways from the top of the default range.
	def.nWays -= ways
	c.partitions = append(c.partitions, partition{
		firstWay: def.firstWay + def.nWays,
		nWays:    ways,
		locked:   true,
	})
	id := PartitionID(len(c.partitions) - 1)
	c.locked[id] = &lockedRegion{
		capLines: ways * c.nSets,
		lines:    make(map[uint64]*line),
	}
	return id, nil
}

// Release returns a reserved partition's ways to the default pool and drops
// (without writeback) any lines it still holds; callers flush first if the
// contents matter.
func (c *LLC) Release(p PartitionID) {
	if p == DefaultPartition {
		return
	}
	c.partMu.Lock()
	part := c.partitions[p]
	c.partitions[p].nWays = 0
	c.partitions[p].locked = false
	if part.firstWay == c.partitions[DefaultPartition].firstWay+c.partitions[DefaultPartition].nWays {
		c.partitions[DefaultPartition].nWays += part.nWays
	}
	delete(c.locked, p)
	c.partMu.Unlock()
}

// lockedFor returns the locked region backing p, or nil for unlocked
// partitions.
func (c *LLC) lockedFor(p PartitionID) *lockedRegion {
	if p == DefaultPartition {
		return nil
	}
	c.partMu.Lock()
	defer c.partMu.Unlock()
	return c.locked[p]
}

func (c *LLC) waysFor(p PartitionID) (first, n int) {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	part := c.partitions[p]
	return part.firstWay, part.nWays
}

// setFor hashes the line address to a set. Modern LLCs select slice and set
// through an address hash, so consecutive lines land in unrelated sets —
// which is why capacity evictions emit cachelines in a shuffled order and
// reawaken write amplification once flush instructions are removed (the
// paper's Figure 3(c) / Observation 1: "the small-sized and randomized
// eviction will amplify the internal write traffic").
func (c *LLC) setFor(addr uint64) *set {
	line := addr / lineSize
	line ^= line >> 17
	line *= 0x9E3779B97F4A7C15
	line ^= line >> 29
	return &c.sets[line%uint64(c.nSets)]
}

// findWay locates addr within the set, searching every way (an address may
// have been installed under any partition).
func findWay(s *set, addr uint64) int {
	for i := range s.ways {
		if s.ways[i].present && s.ways[i].addr == addr {
			return i
		}
	}
	return -1
}

// victimWay picks the least-recently-used way within the partition's range.
func (c *LLC) victimWay(s *set, p PartitionID) int {
	first, n := c.waysFor(p)
	best := -1
	for w := first; w < first+n; w++ {
		if !s.ways[w].present {
			return w
		}
		if best == -1 || s.ways[w].lruTick < s.ways[best].lruTick {
			best = w
		}
	}
	return best
}

// install places addr into the set under partition p, evicting the LRU line
// of that partition if necessary. Returns the way index. The set lock must be
// held; eviction writeback is performed with the lock held (the model
// tolerates this because WriteLines never re-enters the cache).
func (c *LLC) install(clk *sim.Clock, s *set, addr uint64, p PartitionID) int {
	w := c.victimWay(s, p)
	if w < 0 {
		panic("cache: partition has no ways")
	}
	v := &s.ways[w]
	if v.present {
		c.statMu.Lock()
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
		}
		c.statMu.Unlock()
		if v.dirty {
			if cell := clk.Cell(); cell != nil {
				cell.LLCWritebackLines.Add(1)
			}
			c.dev.WriteLines(clk, v.addr, v.data[:])
		}
	}
	s.tick++
	*v = line{addr: addr, present: true, partition: p, lruTick: s.tick}
	return w
}

// Write stores data at addr through the cache under partition p. Partial-line
// writes to absent lines fetch the line from PMem first (write-allocate).
// data need not be aligned.
func (c *LLC) Write(clk *sim.Clock, addr uint64, data []byte, p PartitionID) {
	if n := c.gateOp(sim.MemOpWrite, addr, len(data)); n < len(data) {
		if n <= 0 {
			return
		}
		data = data[:n]
	}
	for len(data) > 0 {
		base := addr &^ (lineSize - 1)
		off := int(addr - base)
		n := lineSize - off
		if n > len(data) {
			n = len(data)
		}
		c.writeLine(clk, base, off, data[:n], p)
		addr += uint64(n)
		data = data[n:]
	}
}

func (c *LLC) writeLine(clk *sim.Clock, base uint64, off int, data []byte, p PartitionID) {
	if lr := c.lockedFor(p); lr != nil {
		c.lockedWrite(clk, lr, base, off, data)
		return
	}
	s := c.setFor(base)
	s.mu.Lock()
	w := findWay(s, base)
	if w >= 0 {
		c.statMu.Lock()
		c.stats.Hits++
		c.statMu.Unlock()
		clk.Advance(c.costs.CacheHitWrite)
	} else {
		c.statMu.Lock()
		c.stats.Misses++
		c.statMu.Unlock()
		w = c.install(clk, s, base, p)
		if off != 0 || len(data) != lineSize {
			// Write-allocate: fetch the rest of the line from the media.
			s.mu.Unlock()
			var fill [lineSize]byte
			c.dev.Read(clk, base, fill[:])
			s.mu.Lock()
			// Re-find: the line may have moved while unlocked.
			w = findWay(s, base)
			if w < 0 {
				w = c.install(clk, s, base, p)
			}
			if !s.ways[w].dirty {
				s.ways[w].data = fill
			}
		}
		clk.Advance(c.costs.CacheHitWrite + c.costs.CacheMissExtra)
	}
	ln := &s.ways[w]
	copy(ln.data[off:], data)
	ln.dirty = true
	s.tick++
	ln.lruTick = s.tick
	s.mu.Unlock()
}

// Read loads len(buf) bytes at addr through the cache under partition p.
func (c *LLC) Read(clk *sim.Clock, addr uint64, buf []byte, p PartitionID) {
	if c.gateOp(sim.MemOpRead, addr, len(buf)) < len(buf) {
		// Frozen platform: serve the currently visible content without
		// installing lines, so the read causes no eviction writebacks.
		c.readBypass(addr, buf)
		return
	}
	for len(buf) > 0 {
		base := addr &^ (lineSize - 1)
		off := int(addr - base)
		n := lineSize - off
		if n > len(buf) {
			n = len(buf)
		}
		c.readLine(clk, base, off, buf[:n], p)
		addr += uint64(n)
		buf = buf[n:]
	}
}

func (c *LLC) readLine(clk *sim.Clock, base uint64, off int, buf []byte, p PartitionID) {
	if lr := c.lockedFor(p); lr != nil {
		c.lockedRead(clk, lr, base, off, buf)
		return
	}
	s := c.setFor(base)
	s.mu.Lock()
	if w := findWay(s, base); w >= 0 {
		c.statMu.Lock()
		c.stats.Hits++
		c.statMu.Unlock()
		copy(buf, s.ways[w].data[off:])
		s.tick++
		s.ways[w].lruTick = s.tick
		s.mu.Unlock()
		clk.Advance(c.costs.CacheHitRead)
		return
	}
	c.statMu.Lock()
	c.stats.Misses++
	c.statMu.Unlock()
	s.mu.Unlock()

	var fill [lineSize]byte
	c.dev.Read(clk, base, fill[:])

	s.mu.Lock()
	w := findWay(s, base)
	if w < 0 {
		w = c.install(clk, s, base, p)
		s.ways[w].data = fill
	}
	copy(buf, s.ways[w].data[off:])
	s.tick++
	s.ways[w].lruTick = s.tick
	s.mu.Unlock()
	clk.Advance(c.costs.CacheHitRead + c.costs.CacheMissExtra)
}

// readBypass serves a read from the currently visible content — the cached
// line when present, the media backing otherwise — without installing lines
// or touching LRU state. The gate's freeze mode uses it so that reads issued
// after the crash point cannot mutate what is durable.
func (c *LLC) readBypass(addr uint64, buf []byte) {
	for len(buf) > 0 {
		base := addr &^ (lineSize - 1)
		off := int(addr - base)
		n := lineSize - off
		if n > len(buf) {
			n = len(buf)
		}
		if ln, ok := c.peekLine(base); ok {
			copy(buf[:n], ln[off:])
		} else {
			c.dev.LoadRaw(addr, buf[:n])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

// lockedWrite stores into a pseudo-locked region's line, allocating it on
// first touch (with write-allocate fill for partial first writes).
func (c *LLC) lockedWrite(clk *sim.Clock, lr *lockedRegion, base uint64, off int, data []byte) {
	lr.mu.Lock()
	ln, ok := lr.lines[base]
	if !ok {
		if len(lr.lines) >= lr.capLines {
			// Overcommit: FIFO-writeback the oldest locked line.
			for len(lr.fifo) > 0 {
				old := lr.fifo[0]
				lr.fifo = lr.fifo[1:]
				if v, present := lr.lines[old]; present {
					if v.dirty {
						if cell := clk.Cell(); cell != nil {
							cell.LLCWritebackLines.Add(1)
						}
						c.dev.WriteLines(clk, old, v.data[:])
					}
					lr.drop(old)
					lr.overflow++
					break
				}
			}
		}
		var fill [lineSize]byte
		if off != 0 || len(data) != lineSize {
			lr.mu.Unlock()
			c.dev.Read(clk, base, fill[:])
			lr.mu.Lock()
		}
		// Another writer may have installed the line while the fill was read.
		if ln, ok = lr.lines[base]; !ok {
			ln = lr.newLine(base)
			ln.data = fill
			lr.lines[base] = ln
			lr.fifo = append(lr.fifo, base)
		}
		clk.Advance(c.costs.CacheHitWrite + c.costs.CacheMissExtra)
	} else {
		clk.Advance(c.costs.CacheHitWrite)
	}
	copy(ln.data[off:], data)
	ln.dirty = true
	lr.mu.Unlock()
}

// lockedRead loads from a pseudo-locked region, filling from media on a miss.
func (c *LLC) lockedRead(clk *sim.Clock, lr *lockedRegion, base uint64, off int, buf []byte) {
	lr.mu.Lock()
	if ln, ok := lr.lines[base]; ok {
		copy(buf, ln.data[off:])
		lr.mu.Unlock()
		clk.Advance(c.costs.CacheHitRead)
		return
	}
	lr.mu.Unlock()
	var fill [lineSize]byte
	c.dev.Read(clk, base, fill[:])
	lr.mu.Lock()
	ln, ok := lr.lines[base]
	if !ok {
		ln = lr.newLine(base)
		ln.data = fill
		lr.lines[base] = ln
		lr.fifo = append(lr.fifo, base)
	}
	copy(buf, ln.data[off:])
	lr.mu.Unlock()
	clk.Advance(c.costs.CacheHitRead + c.costs.CacheMissExtra)
}

// lockedRegions snapshots the live locked regions.
func (c *LLC) lockedRegions() []*lockedRegion {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	out := make([]*lockedRegion, 0, len(c.locked))
	for _, lr := range c.locked {
		out = append(out, lr)
	}
	return out
}

// Flush performs clflush over [addr, addr+n): dirty lines are written back to
// the PMem (arriving at the XPBuffer in ascending address order, which is
// what lets adjacent lines combine) and every touched line is invalidated.
func (c *LLC) Flush(clk *sim.Clock, addr uint64, n int) {
	if g := c.gateOp(sim.MemOpFlush, addr, n); g < n {
		// A torn flush writes back only the leading lines: the crash landed
		// mid-loop, before the trailing fence completed.
		if g <= 0 {
			return
		}
		n = g
	}
	c.flushRange(clk, addr, n, true)
}

// FlushOpt performs clwb: dirty lines are written back but remain valid
// (clean) in the cache.
func (c *LLC) FlushOpt(clk *sim.Clock, addr uint64, n int) {
	if g := c.gateOp(sim.MemOpFlushOpt, addr, n); g < n {
		if g <= 0 {
			return
		}
		n = g
	}
	c.flushRange(clk, addr, n, false)
}

func (c *LLC) flushRange(clk *sim.Clock, addr uint64, n int, invalidate bool) {
	if n <= 0 {
		return
	}
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(n) - 1) &^ (lineSize - 1)
	regions := c.lockedRegions()
	for base := first; ; base += lineSize {
		s := c.setFor(base)
		s.mu.Lock()
		if w := findWay(s, base); w >= 0 {
			ln := &s.ways[w]
			if ln.dirty {
				c.statMu.Lock()
				c.stats.Flushes++
				c.statMu.Unlock()
				if cell := clk.Cell(); cell != nil {
					cell.LLCFlushLines.Add(1)
				}
				c.dev.WriteLines(clk, base, ln.data[:])
				ln.dirty = false
			}
			if invalidate {
				*ln = line{}
			}
		}
		s.mu.Unlock()
		for _, lr := range regions {
			lr.mu.Lock()
			if ln, ok := lr.lines[base]; ok {
				if ln.dirty {
					c.statMu.Lock()
					c.stats.Flushes++
					c.statMu.Unlock()
					if cell := clk.Cell(); cell != nil {
						cell.LLCFlushLines.Add(1)
					}
					c.dev.WriteLines(clk, base, ln.data[:])
					ln.dirty = false
				}
				if invalidate {
					lr.drop(base)
				}
			}
			lr.mu.Unlock()
		}
		clk.Advance(c.costs.CLFlush)
		if base == last {
			break
		}
	}
	clk.Advance(c.costs.Fence)
}

// Invalidate drops lines in [addr, addr+n) without writing them back. It
// models reusing a region whose contents were already copied elsewhere.
func (c *LLC) Invalidate(addr uint64, n int) {
	if c.gateOp(sim.MemOpInvalidate, addr, n) < n {
		return
	}
	c.invalidate(addr, n)
}

// invalidate is Invalidate without gate interception; internal paths that
// already passed the gate (NTWrite) use it.
func (c *LLC) invalidate(addr uint64, n int) {
	if n <= 0 {
		return
	}
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(n) - 1) &^ (lineSize - 1)
	regions := c.lockedRegions()
	for base := first; ; base += lineSize {
		s := c.setFor(base)
		s.mu.Lock()
		if w := findWay(s, base); w >= 0 {
			s.ways[w] = line{}
		}
		s.mu.Unlock()
		for _, lr := range regions {
			lr.mu.Lock()
			lr.drop(base)
			lr.mu.Unlock()
		}
		if base == last {
			break
		}
	}
}

// NTWrite stores data at addr with non-temporal semantics: the cache is
// bypassed (stale copies are dropped) and full cachelines stream straight
// into the PMem's XPBuffer, which is why a sub-MemTable-sized NT copy fills
// whole XPLines and avoids read-modify-write amplification.
func (c *LLC) NTWrite(clk *sim.Clock, addr uint64, data []byte) {
	if len(data) == 0 {
		return
	}
	if n := c.gateOp(sim.MemOpNTWrite, addr, len(data)); n < len(data) {
		if n <= 0 {
			return
		}
		data = data[:n]
	}
	// Align the transfer to cachelines; ragged edges pay a read-modify-write
	// at line granularity. Edge bytes are merged from the *visible* content —
	// dirty cache lines included — not the stale backing. Only the two edge
	// lines are staged: whole lines in between stream from data as they are.
	base := addr &^ (lineSize - 1)
	head := int(addr - base)
	padded := head + len(data)
	if rem := padded % lineSize; rem != 0 {
		padded += lineSize - rem
	}
	lastBase := base + uint64(padded) - lineSize
	var first, last [lineSize]byte
	ragged := head > 0 || padded != len(data)
	if ragged {
		c.visibleLine(base, first[:])
		if lastBase != base {
			c.visibleLine(lastBase, last[:])
		}
	}
	// Stale cached copies are dropped only after the edge merge read them.
	c.invalidate(addr, len(data))
	clk.Advance(int64(padded/lineSize) * c.costs.NTStore)
	if !ragged {
		c.dev.WriteLinesPipelined(clk, base, data)
	} else {
		n := copy(first[head:], data)
		c.dev.WriteLinesPipelined(clk, base, first[:])
		if lastBase != base {
			whole := int(lastBase-base) - lineSize // bytes of untouched middle lines
			c.dev.WriteLinesPipelined(clk, base+lineSize, data[n:n+whole])
			copy(last[:], data[n+whole:])
			c.dev.WriteLinesPipelined(clk, lastBase, last[:])
		}
	}
	clk.Advance(c.costs.Fence)
}

// visibleLine fills out with the line at base as a load would see it: the
// cached copy when there is one, the backing bytes otherwise.
func (c *LLC) visibleLine(base uint64, out []byte) {
	if ln, ok := c.peekLine(base); ok {
		copy(out, ln)
		return
	}
	c.dev.LoadRaw(base, out)
}

// peekLine returns a copy of the line's current cached content, searching
// both the set array and every locked region.
func (c *LLC) peekLine(base uint64) ([]byte, bool) {
	s := c.setFor(base)
	s.mu.Lock()
	if w := findWay(s, base); w >= 0 {
		out := make([]byte, lineSize)
		copy(out, s.ways[w].data[:])
		s.mu.Unlock()
		return out, true
	}
	s.mu.Unlock()
	for _, lr := range c.lockedRegions() {
		lr.mu.Lock()
		if ln, ok := lr.lines[base]; ok {
			out := make([]byte, lineSize)
			copy(out, ln.data[:])
			lr.mu.Unlock()
			return out, true
		}
		lr.mu.Unlock()
	}
	return nil, false
}

// Contains reports whether addr's line is present (and if so, dirty). Tests
// and crash accounting use it; engines must not.
func (c *LLC) Contains(addr uint64) (present, dirty bool) {
	base := addr &^ (lineSize - 1)
	s := c.setFor(base)
	s.mu.Lock()
	if w := findWay(s, base); w >= 0 {
		d := s.ways[w].dirty
		s.mu.Unlock()
		return true, d
	}
	s.mu.Unlock()
	for _, lr := range c.lockedRegions() {
		lr.mu.Lock()
		if ln, ok := lr.lines[base]; ok {
			d := ln.dirty
			lr.mu.Unlock()
			return true, d
		}
		lr.mu.Unlock()
	}
	return false, false
}

// Crash applies the persistence-domain rule at power failure. Under eADR all
// dirty lines drain to the PMem backing (content only — the event counters do
// not move, as the platform does this with stored energy, not software).
// Under ADR dirty lines are discarded. In both cases the cache ends empty.
func (c *LLC) Crash() {
	for i := range c.sets {
		s := &c.sets[i]
		s.mu.Lock()
		for w := range s.ways {
			ln := &s.ways[w]
			if ln.present && ln.dirty && c.domain == EADR {
				c.dev.StoreRaw(ln.addr, ln.data[:])
			}
			*ln = line{}
		}
		s.mu.Unlock()
	}
	for _, lr := range c.lockedRegions() {
		lr.mu.Lock()
		for addr, ln := range lr.lines {
			if ln.dirty && c.domain == EADR {
				c.dev.StoreRaw(addr, ln.data[:])
			}
			delete(lr.lines, addr)
		}
		lr.fifo = lr.fifo[:0]
		lr.mu.Unlock()
	}
}

// Stats returns a copy of the event counters.
func (c *LLC) Stats() Stats {
	c.statMu.Lock()
	defer c.statMu.Unlock()
	return c.stats
}
