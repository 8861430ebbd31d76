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
//     every dirty line into the PMem device while ADR discards them;
//   - a power rule: from Crash to Recover nothing stores, and a thread of an
//     earlier boot never stores again.
//
// Dirty lines hold their own 64-byte payload; the PMem backing array only
// sees bytes when a line is written back. That separation is what makes
// crash simulation honest: under ADR, un-flushed stores genuinely vanish.
//
// The host layout is flat tables. A set's ways are three parallel arrays: tag
// words (line address | present | dirty) that a lookup scans, LRU ticks, and
// payloads. A pinned partition's lines live in a table indexed by address. A
// count of resident set-array lines per 64 KiB granule lets range operations
// skip granules that hold nothing. The partition layout is an immutable
// snapshot that Reserve and Release replace, so a line operation takes no
// lock but its set's (or its pinned table's).
package cache

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

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

// A way's tag word is its line address with the way's state in the low bits,
// which a 64-byte-aligned address leaves free. An empty way's tag is 0.
const (
	tagPresent uint64 = 1
	tagDirty   uint64 = 2
	tagState          = tagPresent | tagDirty
)

// A granule is 64 KiB of address space: the unit of the residency counts and
// of a pinned table's leaves.
const (
	granuleShift = 16
	granuleLines = 1 << granuleShift / lineSize
)

func granule(addr uint64) uint64 { return addr >> granuleShift }

// PartitionID names a CAT allocation class. DefaultPartition is the shared
// pool every ordinary access uses.
type PartitionID int

// DefaultPartition is the unreserved portion of the cache.
const DefaultPartition PartitionID = 0

// set is one set's view into the LLC's flat arrays. A set's tag words, LRU
// ticks and own tick sit side by side in one run of words, its payloads in
// another, both at offsets the set's index gives: a lookup loads no pointer
// before it reaches them.
type set struct {
	mu   *sync.Mutex
	tags []uint64         // per way: line address | tagPresent | tagDirty, 0 when empty
	lru  []uint64         // per way: the set tick of its last touch
	tick *uint64          // the set's clock for lru
	data [][lineSize]byte // per way: the line's bytes
}

// find returns the way holding base, or -1. Every way is searched: an address
// may have been installed under any partition.
func (s *set) find(base uint64) int {
	want := base | tagPresent
	for w, t := range s.tags {
		if t&^tagDirty == want {
			return w
		}
	}
	return -1
}

// touch makes way w the set's most recently used.
func (s *set) touch(w int) {
	*s.tick++
	s.lru[w] = *s.tick
}

// Stats counts cache events.
type Stats struct {
	Hits            int64
	Misses          int64
	Evictions       int64 // capacity evictions (dirty or clean)
	Writebacks      int64 // dirty lines pushed to PMem by eviction
	Flushes         int64 // lines written back by explicit clflush/clwb
	PostCrashStores int64 // stores, flushes, invalidates refused: see Crash
}

// partition describes a contiguous run of ways granted to one allocation
// class, mirroring a CAT way mask.
type partition struct {
	firstWay, nWays int
	pinned          *pinnedRegion // non-nil while the partition is pseudo-locked
}

// partTable is the partition layout at one instant. It is never modified:
// Reserve and Release publish a new one.
type partTable struct {
	parts  []partition     // by PartitionID
	pinned []*pinnedRegion // the live pinned regions, in reservation order
}

// pinnedRegion is the storage behind a pseudo-locked partition. Cache
// Pseudo-Locking guarantees that nothing else can evict the locked lines and
// the locked working set fits by construction, so the model keeps them in a
// dedicated exact-fit table instead of the hashed set array: a directory over
// 64 KiB granules, each granule a leaf of 1 024 line slots allocated when the
// first of its lines is installed. Should a caller overcommit, the oldest line
// is written back FIFO (and counted) rather than corrupting anything.
type pinnedRegion struct {
	mu       sync.Mutex
	capLines int
	lines    int           // lines present
	dir      []*pinnedLeaf // by granule, up to the highest one installed into
	fifo     []uint64      // install order; see overcommit
}

type pinnedLeaf struct {
	state [granuleLines]uint8 // per slot: tagPresent | tagDirty
	data  [granuleLines][lineSize]byte
	lines int // slots present
}

// lookup returns base's leaf and slot, and whether the line is present; r.mu
// held. The leaf is nil when base's granule was never installed into.
func (r *pinnedRegion) lookup(base uint64) (*pinnedLeaf, int, bool) {
	g := granule(base)
	if g >= uint64(len(r.dir)) || r.dir[g] == nil {
		return nil, 0, false
	}
	lf, i := r.dir[g], int(base/lineSize)%granuleLines
	return lf, i, lf.state[i] != 0
}

// insert makes absent base present and clean with fill's bytes and queues it
// for overcommit; r.mu held.
func (r *pinnedRegion) insert(base uint64, fill *[lineSize]byte) (*pinnedLeaf, int) {
	g := granule(base)
	if n := int(g) + 1; n > len(r.dir) {
		r.dir = append(r.dir, make([]*pinnedLeaf, n-len(r.dir))...)
	}
	lf := r.dir[g]
	if lf == nil {
		lf = new(pinnedLeaf)
		r.dir[g] = lf
	}
	i := int(base/lineSize) % granuleLines
	lf.state[i] = uint8(tagPresent)
	lf.data[i] = *fill
	lf.lines++
	r.lines++
	r.fifo = append(r.fifo, base)
	return lf, i
}

// drop removes the present line in lf's slot i; r.mu held.
func (r *pinnedRegion) drop(lf *pinnedLeaf, i int) {
	lf.state[i] = 0
	lf.lines--
	r.lines--
}

// leaf returns granule g's leaf if any of its lines is present, else nil;
// r.mu held.
func (r *pinnedRegion) leaf(g uint64) *pinnedLeaf {
	if g < uint64(len(r.dir)) && r.dir[g] != nil && r.dir[g].lines > 0 {
		return r.dir[g]
	}
	return nil
}

// holds reports whether any line of granule g is present.
func (r *pinnedRegion) holds(g uint64) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.leaf(g) != nil
}

// LLC is the modelled last-level cache.
type LLC struct {
	costs  *sim.CostModel
	dev    *pmem.Device
	domain Domain

	nSets int
	nWays int
	locks []sync.Mutex     // per set
	meta  []uint64         // per set, 2*nWays+1 words: its ways' tags, their LRU ticks, its tick
	data  [][lineSize]byte // per set, nWays: its ways' bytes

	// resident counts, per granule of the device, the set-array lines
	// present; a range operation skips the set array where it reads 0.
	resident []atomic.Int32

	partMu sync.Mutex // serialises Reserve and Release
	parts  atomic.Pointer[partTable]

	// gate, when non-nil, intercepts every persistence-plane operation the
	// cache accepts (see sim.MemGate). The fault-injection harness installs
	// it to number crash-point events and to freeze the platform at a chosen
	// one; ordinary operation leaves it nil.
	gate atomic.Pointer[sim.MemGate]

	// power is twice the recoveries so far, plus one from Crash to Recover.
	// A store, flush or line fill needs it even and equal to its clock's Boot,
	// checked under a lock Crash's sweep takes (a set's, a pinned region's, or
	// ntMu shared), so none still reaches the media once Crash returns.
	power atomic.Uint64
	ntMu  sync.RWMutex

	hits, misses, evictions, writebacks, flushes, postCrash atomic.Int64
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
		costs:    cm,
		dev:      dev,
		domain:   cfg.Domain,
		nSets:    nSets,
		nWays:    cfg.Ways,
		locks:    make([]sync.Mutex, nSets),
		meta:     make([]uint64, nSets*(2*cfg.Ways+1)),
		data:     make([][lineSize]byte, nSets*cfg.Ways),
		resident: make([]atomic.Int32, granule(dev.Capacity())+1),
	}
	// Partition 0 initially owns every way.
	c.parts.Store(&partTable{parts: []partition{{firstWay: 0, nWays: cfg.Ways}}})
	return c
}

// Domain returns the configured persistence domain.
func (c *LLC) Domain() Domain { return c.domain }

// SetGate installs g as the persistence-operation gate (nil removes it).
// Crash-schedule exploration uses the gate to number and suppress operations;
// see sim.MemGate for the interception contract.
func (c *LLC) SetGate(g sim.MemGate) {
	if g == nil {
		c.gate.Store(nil)
		return
	}
	c.gate.Store(&g)
}

// gateOp consults the installed gate, returning the permitted byte count
// (n when no gate is installed).
func (c *LLC) gateOp(op sim.MemOp, addr uint64, n int) int {
	if g := c.gate.Load(); g != nil {
		return (*g)(op, addr, n)
	}
	return n
}

// live reports whether clk may store: the power is on and clk is of this boot.
func (c *LLC) live(clk *sim.Clock) bool {
	b := clk.Boot()
	return b&1 == 0 && b == c.power.Load()
}

// refused reports whether clk may not store, counting the refusal.
func (c *LLC) refused(clk *sim.Clock) bool {
	dead := !c.live(clk)
	if dead {
		c.postCrash.Add(1)
	}
	return dead
}

// Boot returns the boot a clock created now belongs to (sim.NewClock).
func (c *LLC) Boot() uint64 { return c.power.Load() }

// Crashed reports whether the power is off: between Crash and Recover.
func (c *LLC) Crashed() bool { return c.power.Load()&1 != 0 }

// SizeBytes returns the total cache capacity.
func (c *LLC) SizeBytes() int { return c.nSets * c.nWays * lineSize }

// PartitionBytes returns the capacity granted to partition p.
func (c *LLC) PartitionBytes(p PartitionID) int {
	return c.parts.Load().parts[p].nWays * c.nSets * lineSize
}

// Reserve carves a pseudo-locked CAT partition of at least sizeBytes out of
// the default partition's ways and returns its ID. Lines installed under the
// returned partition are never victims of ordinary replacement. It fails if
// the default partition would drop below one way.
func (c *LLC) Reserve(sizeBytes int) (PartitionID, error) {
	c.partMu.Lock()
	defer c.partMu.Unlock()
	old := c.parts.Load()
	perWay := c.nSets * lineSize
	ways := (sizeBytes + perWay - 1) / perWay
	if ways < 1 {
		ways = 1
	}
	def := old.parts[DefaultPartition]
	if def.nWays-ways < 1 {
		return 0, fmt.Errorf("cache: cannot reserve %d ways, only %d available", ways, def.nWays-1)
	}
	// Take ways from the top of the default range.
	r := &pinnedRegion{capLines: ways * c.nSets}
	parts := append(slices.Clone(old.parts), partition{
		firstWay: def.firstWay + def.nWays - ways,
		nWays:    ways,
		pinned:   r,
	})
	parts[DefaultPartition].nWays -= ways
	c.parts.Store(&partTable{parts: parts, pinned: append(slices.Clone(old.pinned), r)})
	return PartitionID(len(parts) - 1), nil
}

// Release returns a reserved partition's ways to the default pool and drops
// (without writeback) any lines it still holds; callers flush first if the
// contents matter.
func (c *LLC) Release(p PartitionID) {
	if p == DefaultPartition {
		return
	}
	c.partMu.Lock()
	defer c.partMu.Unlock()
	old := c.parts.Load()
	parts := slices.Clone(old.parts)
	part := parts[p]
	parts[p] = partition{firstWay: part.firstWay}
	if def := &parts[DefaultPartition]; part.firstWay == def.firstWay+def.nWays {
		def.nWays += part.nWays
	}
	pinned := slices.DeleteFunc(slices.Clone(old.pinned), func(r *pinnedRegion) bool { return r == part.pinned })
	c.parts.Store(&partTable{parts: parts, pinned: pinned})
}

// setFor hashes the line address to a set. Modern LLCs select slice and set
// through an address hash, so consecutive lines land in unrelated sets —
// which is why capacity evictions emit cachelines in a shuffled order and
// reawaken write amplification once flush instructions are removed (the
// paper's Figure 3(c) / Observation 1: "the small-sized and randomized
// eviction will amplify the internal write traffic").
func (c *LLC) setFor(addr uint64) set {
	line := addr / lineSize
	line ^= line >> 17
	line *= 0x9E3779B97F4A7C15
	line ^= line >> 29
	return c.set(int(line % uint64(c.nSets)))
}

// set returns set i's view.
func (c *LLC) set(i int) set {
	n := c.nWays
	m := c.meta[i*(2*n+1) : (i+1)*(2*n+1)]
	return set{mu: &c.locks[i], tags: m[:n:n], lru: m[n : 2*n : 2*n], tick: &m[2*n], data: c.data[i*n : (i+1)*n : (i+1)*n]}
}

// victimWay picks the least-recently-used way within the partition's range.
func victimWay(s *set, part partition) int {
	best := -1
	for w := part.firstWay; w < part.firstWay+part.nWays; w++ {
		if s.tags[w]&tagPresent == 0 {
			return w
		}
		if best == -1 || s.lru[w] < s.lru[best] {
			best = w
		}
	}
	return best
}

// install places base, holding fill's bytes, into the set under part,
// evicting the LRU line of that partition if necessary. Returns the way index.
// The set lock must be held; eviction writeback is performed with the lock
// held (the model tolerates this because WriteLines never re-enters the
// cache).
func (c *LLC) install(clk *sim.Clock, s *set, base uint64, part partition, fill *[lineSize]byte) int {
	w := victimWay(s, part)
	if w < 0 {
		panic("cache: partition has no ways")
	}
	if t := s.tags[w]; t&tagPresent != 0 {
		c.evictions.Add(1)
		if t&tagDirty != 0 {
			c.writebacks.Add(1)
			if cell := clk.Cell(); cell != nil {
				cell.LLCWritebackLines.Add(1)
			}
			c.dev.WriteLines(clk, t&^tagState, s.data[w][:])
		}
		c.resident[granule(t)].Add(-1)
	}
	s.tags[w] = base | tagPresent
	s.data[w] = *fill
	s.touch(w)
	c.resident[granule(base)].Add(1)
	return w
}

// empty empties way w of s; the set lock must be held.
func (c *LLC) empty(s *set, w int) {
	c.resident[granule(s.tags[w])].Add(-1)
	s.tags[w] = 0
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
	if c.refused(clk) {
		return
	}
	part := c.parts.Load().parts[p]
	for len(data) > 0 {
		base := addr &^ (lineSize - 1)
		off := int(addr - base)
		n := min(lineSize-off, len(data))
		if part.pinned != nil {
			c.pinnedWrite(clk, part.pinned, base, off, data[:n])
		} else {
			c.writeLine(clk, base, off, data[:n], part)
		}
		addr += uint64(n)
		data = data[n:]
	}
}

func (c *LLC) writeLine(clk *sim.Clock, base uint64, off int, data []byte, part partition) {
	s := c.setFor(base)
	s.mu.Lock()
	if !c.live(clk) { // the power failed since Write checked
		s.mu.Unlock()
		return
	}
	w := s.find(base)
	if w >= 0 {
		c.hits.Add(1)
		clk.Advance(c.costs.CacheHitWrite)
	} else {
		c.misses.Add(1)
		var fill [lineSize]byte
		if off != 0 || len(data) != lineSize {
			// Write-allocate: fetch the rest of the line from the media
			// before the line is installed (see readLine).
			c.dev.Read(clk, base, fill[:])
		}
		w = c.install(clk, &s, base, part, &fill)
		clk.Advance(c.costs.CacheHitWrite + c.costs.CacheMissExtra)
	}
	copy(s.data[w][off:], data)
	s.tags[w] |= tagDirty
	s.touch(w)
	s.mu.Unlock()
}

// Read loads len(buf) bytes at addr through the cache under partition p.
func (c *LLC) Read(clk *sim.Clock, addr uint64, buf []byte, p PartitionID) {
	if c.gateOp(sim.MemOpRead, addr, len(buf)) < len(buf) || !c.live(clk) {
		// Frozen platform or dead thread: serve the currently visible content
		// without installing lines, so the read causes no eviction writebacks.
		c.readBypass(addr, buf)
		return
	}
	part := c.parts.Load().parts[p]
	for len(buf) > 0 {
		base := addr &^ (lineSize - 1)
		off := int(addr - base)
		n := min(lineSize-off, len(buf))
		if part.pinned != nil {
			c.pinnedRead(clk, part.pinned, base, off, buf[:n])
		} else {
			c.readLine(clk, base, off, buf[:n], part)
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

func (c *LLC) readLine(clk *sim.Clock, base uint64, off int, buf []byte, part partition) {
	s := c.setFor(base)
	s.mu.Lock()
	w := s.find(base)
	cost := c.costs.CacheHitRead
	if w >= 0 {
		c.hits.Add(1)
	} else if !c.live(clk) {
		// The power failed since Read checked: a fill could evict a dirty line.
		s.mu.Unlock()
		c.readBypass(base+uint64(off), buf)
		return
	} else {
		c.misses.Add(1)
		// The fill is read with the set locked: this line's bytes reach the
		// media only under the same lock (an eviction or a flush), so no
		// reader sees the line before its fill, and no fill is torn or stale.
		// Counted resident before the fill: a concurrent NTWrite then drops it.
		var fill [lineSize]byte
		c.resident[granule(base)].Add(1)
		c.dev.Read(clk, base, fill[:])
		w = c.install(clk, &s, base, part, &fill)
		c.resident[granule(base)].Add(-1)
		cost += c.costs.CacheMissExtra
	}
	copy(buf, s.data[w][off:])
	s.touch(w)
	s.mu.Unlock()
	clk.Advance(cost)
}

// readBypass serves a read from the currently visible content — the cached
// line when present, the media backing otherwise — without installing lines
// or touching LRU state. The gate's freeze mode and the power rule use it so
// that reads issued after the crash point cannot mutate what is durable.
func (c *LLC) readBypass(addr uint64, buf []byte) {
	for len(buf) > 0 {
		base := addr &^ (lineSize - 1)
		off := int(addr - base)
		n := min(lineSize-off, len(buf))
		var ln [lineSize]byte
		if c.peekLine(base, &ln) {
			copy(buf[:n], ln[off:])
		} else {
			c.dev.LoadRaw(addr, buf[:n])
		}
		addr += uint64(n)
		buf = buf[n:]
	}
}

// pinnedWrite stores into a pinned region's line, installing it on first
// touch (with write-allocate fill for partial first writes).
func (c *LLC) pinnedWrite(clk *sim.Clock, r *pinnedRegion, base uint64, off int, data []byte) {
	r.mu.Lock()
	if !c.live(clk) { // the power failed since Write checked
		r.mu.Unlock()
		return
	}
	lf, i, ok := r.lookup(base)
	if !ok {
		if r.lines >= r.capLines {
			c.overcommit(clk, r)
		}
		var fill [lineSize]byte
		if off != 0 || len(data) != lineSize {
			r.mu.Unlock()
			c.dev.Read(clk, base, fill[:])
			r.mu.Lock()
		}
		// Another writer may have installed the line while the fill was read.
		if lf, i, ok = r.lookup(base); !ok {
			lf, i = r.insert(base, &fill)
		}
		clk.Advance(c.costs.CacheHitWrite + c.costs.CacheMissExtra)
	} else {
		clk.Advance(c.costs.CacheHitWrite)
	}
	copy(lf.data[i][off:], data)
	lf.state[i] |= uint8(tagDirty)
	r.mu.Unlock()
}

// overcommit writes back (when dirty) and drops the line at the head of r's
// install order, skipping entries whose line is gone; r.mu held. An entry is
// not retired when its line is dropped by a flush or an invalidate, so when
// that line is installed again, its old entry evicts it ahead of its turn —
// part of the model that write amplification figures are measured against.
func (c *LLC) overcommit(clk *sim.Clock, r *pinnedRegion) {
	for len(r.fifo) > 0 {
		old := r.fifo[0]
		r.fifo = r.fifo[1:]
		if lf, i, present := r.lookup(old); present {
			if lf.state[i]&uint8(tagDirty) != 0 {
				if cell := clk.Cell(); cell != nil {
					cell.LLCWritebackLines.Add(1)
				}
				c.dev.WriteLines(clk, old, lf.data[i][:])
			}
			r.drop(lf, i)
			return
		}
	}
}

// pinnedRead loads from a pinned region, filling from media on a miss.
func (c *LLC) pinnedRead(clk *sim.Clock, r *pinnedRegion, base uint64, off int, buf []byte) {
	r.mu.Lock()
	if lf, i, ok := r.lookup(base); ok {
		copy(buf, lf.data[i][off:])
		r.mu.Unlock()
		clk.Advance(c.costs.CacheHitRead)
		return
	}
	r.mu.Unlock()
	var fill [lineSize]byte
	c.dev.Read(clk, base, fill[:])
	r.mu.Lock()
	lf, i, ok := r.lookup(base)
	if !ok {
		lf, i = r.insert(base, &fill)
	}
	copy(buf, lf.data[i][off:])
	r.mu.Unlock()
	clk.Advance(c.costs.CacheHitRead + c.costs.CacheMissExtra)
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

// forGranules calls fn(g, first, last) for each granule g that [addr,
// addr+n) touches, with the first and last line address of the range in it;
// n > 0.
func forGranules(addr uint64, n int, fn func(g, first, last uint64)) {
	first := addr &^ (lineSize - 1)
	last := (addr + uint64(n) - 1) &^ (lineSize - 1)
	for g := granule(first); g <= granule(last); g++ {
		fn(g, max(first, g<<granuleShift), min(last, (g+1)<<granuleShift-lineSize))
	}
}

func (c *LLC) flushRange(clk *sim.Clock, addr uint64, n int, invalidate bool) {
	if n <= 0 || c.refused(clk) {
		return
	}
	pinned := c.parts.Load().pinned
	forGranules(addr, n, func(g, first, last uint64) {
		inSets := c.resident[g].Load() != 0
		var held [4]*pinnedRegion
		holding := held[:0]
		for _, r := range pinned {
			if r.holds(g) {
				holding = append(holding, r)
			}
		}
		for base := first; ; base += lineSize {
			// Each line is checked under the lock Crash's sweep takes: a flush
			// the power failure cut writes back nothing after it.
			if inSets {
				s := c.setFor(base)
				s.mu.Lock()
				if w := s.find(base); w >= 0 && c.live(clk) {
					if s.tags[w]&tagDirty != 0 {
						c.writeBack(clk, base, &s.data[w])
						s.tags[w] &^= tagDirty
					}
					if invalidate {
						c.empty(&s, w)
					}
				}
				s.mu.Unlock()
			}
			for _, r := range holding {
				r.mu.Lock()
				if lf, i, ok := r.lookup(base); ok && c.live(clk) {
					if lf.state[i]&uint8(tagDirty) != 0 {
						c.writeBack(clk, base, &lf.data[i])
						lf.state[i] &^= uint8(tagDirty)
					}
					if invalidate {
						r.drop(lf, i)
					}
				}
				r.mu.Unlock()
			}
			clk.Advance(c.costs.CLFlush)
			if base == last {
				break
			}
		}
	})
	clk.Advance(c.costs.Fence)
}

// writeBack pushes one dirty line to the PMem for a flush instruction.
func (c *LLC) writeBack(clk *sim.Clock, base uint64, data *[lineSize]byte) {
	c.flushes.Add(1)
	if cell := clk.Cell(); cell != nil {
		cell.LLCFlushLines.Add(1)
	}
	c.dev.WriteLines(clk, base, data[:])
}

// Invalidate drops lines in [addr, addr+n) without writing them back. It
// models reusing a region whose contents were already copied elsewhere.
func (c *LLC) Invalidate(addr uint64, n int) {
	if c.gateOp(sim.MemOpInvalidate, addr, n) < n {
		return
	}
	if c.Crashed() {
		c.postCrash.Add(1)
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
	pinned := c.parts.Load().pinned
	forGranules(addr, n, func(g, first, last uint64) {
		if c.resident[g].Load() != 0 {
			for base := first; ; base += lineSize {
				s := c.setFor(base)
				s.mu.Lock()
				if w := s.find(base); w >= 0 {
					c.empty(&s, w)
				}
				s.mu.Unlock()
				if base == last {
					break
				}
			}
		}
		for _, r := range pinned {
			r.mu.Lock()
			if lf := r.leaf(g); lf != nil {
				for i := int(first/lineSize) % granuleLines; i <= int(last/lineSize)%granuleLines; i++ {
					if lf.state[i] != 0 {
						r.drop(lf, i)
					}
				}
			}
			r.mu.Unlock()
		}
	})
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
	// Crash waits for every NT store past this check.
	c.ntMu.RLock()
	defer c.ntMu.RUnlock()
	if c.refused(clk) {
		return
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
		c.visibleLine(base, &first)
		if lastBase != base {
			c.visibleLine(lastBase, &last)
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
	// Drop what a load that missed meanwhile filled from the old bytes.
	c.invalidate(addr, len(data))
	clk.Advance(c.costs.Fence)
}

// visibleLine fills out with the line at base as a load would see it: the
// cached copy when there is one, the backing bytes otherwise.
func (c *LLC) visibleLine(base uint64, out *[lineSize]byte) {
	if !c.peekLine(base, out) {
		c.dev.LoadRaw(base, out[:])
	}
}

// peekLine copies the line's current cached content into out, searching both
// the set array and every pinned region, and reports whether it was cached.
func (c *LLC) peekLine(base uint64, out *[lineSize]byte) bool {
	found := false
	c.lookupLine(base, func(data *[lineSize]byte, _ bool) { *out, found = *data, true })
	return found
}

// Contains reports whether addr's line is present (and if so, dirty). Tests
// and crash accounting use it; engines must not.
func (c *LLC) Contains(addr uint64) (present, dirty bool) {
	c.lookupLine(addr&^(lineSize-1), func(_ *[lineSize]byte, d bool) { present, dirty = true, d })
	return present, dirty
}

// lookupLine calls fn, under the lock that guards it, with the first cached
// copy of base's line found: the set array's, else a pinned region's.
func (c *LLC) lookupLine(base uint64, fn func(data *[lineSize]byte, dirty bool)) {
	if c.resident[granule(base)].Load() != 0 {
		s := c.setFor(base)
		s.mu.Lock()
		if w := s.find(base); w >= 0 {
			fn(&s.data[w], s.tags[w]&tagDirty != 0)
			s.mu.Unlock()
			return
		}
		s.mu.Unlock()
	}
	for _, r := range c.parts.Load().pinned {
		r.mu.Lock()
		if lf, i, ok := r.lookup(base); ok {
			fn(&lf.data[i], lf.state[i]&uint8(tagDirty) != 0)
			r.mu.Unlock()
			return
		}
		r.mu.Unlock()
	}
}

// Crash cuts the power: until Recover the cache refuses every store, NT store,
// flush and invalidate (Stats.PostCrashStores) and serves reads from the
// visible content without installing a line. Then the persistence-domain
// rule: under eADR every dirty line drains to the PMem backing (content only —
// the event counters do not move, as the platform does this with stored
// energy, not software); under ADR they are lost at Recover. The lines stay
// readable until then.
func (c *LLC) Crash() {
	if c.Crashed() {
		return
	}
	c.power.Add(1)
	c.ntMu.Lock() // no NT store is still writing
	c.ntMu.Unlock()
	// The sweep takes every lock a store checks the power under, so a store
	// that saw the power on has finished when the sweep passes its line.
	drain := c.domain == EADR
	for i := range c.locks {
		s := c.set(i)
		s.mu.Lock()
		for w, t := range s.tags {
			if t&tagDirty != 0 && drain {
				c.dev.StoreRaw(t&^tagState, s.data[w][:])
			}
		}
		s.mu.Unlock()
	}
	for _, r := range c.parts.Load().pinned {
		r.mu.Lock()
		for g, lf := range r.dir {
			if lf == nil || !drain {
				continue
			}
			for i, st := range lf.state {
				if st&uint8(tagDirty) != 0 {
					c.dev.StoreRaw(uint64(g)<<granuleShift+uint64(i)*lineSize, lf.data[i][:])
				}
			}
		}
		r.mu.Unlock()
	}
}

// Recover boots the platform after a Crash: the cache empties with no
// writeback (the ADR rule), the PMem device power-cycles, and the power comes
// back on for clocks created from now on.
func (c *LLC) Recover() {
	if !c.Crashed() {
		return
	}
	for i := range c.locks {
		s := c.set(i)
		s.mu.Lock()
		clear(s.tags)
		s.mu.Unlock()
	}
	for i := range c.resident {
		c.resident[i].Store(0)
	}
	for _, r := range c.parts.Load().pinned {
		r.mu.Lock()
		r.dir, r.lines = nil, 0
		r.fifo = r.fifo[:0]
		r.mu.Unlock()
	}
	c.dev.PowerCycle()
	c.power.Add(1)
}

// Stats returns a copy of the event counters.
func (c *LLC) Stats() Stats {
	return Stats{
		Hits:            c.hits.Load(),
		Misses:          c.misses.Load(),
		Evictions:       c.evictions.Load(),
		Writebacks:      c.writebacks.Load(),
		Flushes:         c.flushes.Load(),
		PostCrashStores: c.postCrash.Load(),
	}
}
