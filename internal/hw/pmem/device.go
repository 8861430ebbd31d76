// Package pmem models an Intel Optane DC PMem module array closely enough to
// reproduce the two hardware effects the paper builds on:
//
//  1. The media has a fixed 256 B access granularity (the "XPLine"), so any
//     write smaller than an XPLine forces an internal read-modify-write and
//     amplifies traffic.
//  2. An on-DIMM write-combining buffer (the "XPBuffer") stages incoming 64 B
//     cachelines; lines that land in an XPLine already being staged combine
//     for free. The *write hit ratio* — combining arrivals over all arrivals —
//     is the hardware counter the paper's Figure 4 plots (via ipmwatch).
//
// The device stores real bytes (sparse, chunk-allocated) so that crash
// recovery code operates on genuine persisted state, and it charges virtual
// latencies to the accessing thread's clock so throughput experiments
// reproduce the paper's shapes. The XPBuffer sits inside the persistence
// domain on real hardware (it is on the DIMM, behind the ADR-protected write
// pending queue), so bytes accepted here are durable in every crash mode.
package pmem

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw/sim"
)

const chunkSize = 1 << 20 // sparse backing allocation unit (1 MiB)

// Counters aggregates the device's hardware event counts. All fields are
// monotonically increasing; Snapshot copies them for delta-based reporting.
type Counters struct {
	LineArrivals atomic.Int64 // 64 B lines accepted by the XPBuffer
	LineHits     atomic.Int64 // arrivals that combined into a staged XPLine
	XPLineEvicts atomic.Int64 // XPLines written to media (full or partial)
	RMWEvicts    atomic.Int64 // partial XPLines needing read-modify-write
	MediaReadB   atomic.Int64 // bytes read from media
	MediaWriteB  atomic.Int64 // bytes written to media (always XPLine multiples)
	CallerWriteB atomic.Int64 // bytes the software actually asked to write
}

// CountersSnapshot is a plain copy of Counters at one instant.
type CountersSnapshot struct {
	LineArrivals int64
	LineHits     int64
	XPLineEvicts int64
	RMWEvicts    int64
	MediaReadB   int64
	MediaWriteB  int64
	CallerWriteB int64
}

// WriteHitRatio returns XPBuffer hits over line arrivals, the paper's Fig. 4
// metric. It is 0 when nothing has been written.
func (s CountersSnapshot) WriteHitRatio() float64 {
	if s.LineArrivals == 0 {
		return 0
	}
	return float64(s.LineHits) / float64(s.LineArrivals)
}

// WriteAmplification returns media bytes written per byte the software wrote.
func (s CountersSnapshot) WriteAmplification() float64 {
	if s.CallerWriteB == 0 {
		return 0
	}
	return float64(s.MediaWriteB) / float64(s.CallerWriteB)
}

// Sub returns the delta s - o, for per-experiment windows.
func (s CountersSnapshot) Sub(o CountersSnapshot) CountersSnapshot {
	return CountersSnapshot{
		LineArrivals: s.LineArrivals - o.LineArrivals,
		LineHits:     s.LineHits - o.LineHits,
		XPLineEvicts: s.XPLineEvicts - o.XPLineEvicts,
		RMWEvicts:    s.RMWEvicts - o.RMWEvicts,
		MediaReadB:   s.MediaReadB - o.MediaReadB,
		MediaWriteB:  s.MediaWriteB - o.MediaWriteB,
		CallerWriteB: s.CallerWriteB - o.CallerWriteB,
	}
}

// Device is the simulated PMem module array.
type Device struct {
	costs    *sim.CostModel
	capacity uint64

	chunks []atomic.Pointer[chunk]

	// XPBuffer state: a FIFO write-combining window. Real Optane stages
	// ~16 KB per DIMM in the XPBuffer proper, but the effective coalescing
	// window observed through the iMC write-pending queues is larger; the
	// model's window is a calibration constant (see sim.CostModel).
	bufMu    sync.Mutex
	buf      xpBuffer
	lastRead atomic.Uint64 // last media read address, for seq/rand latency

	bw sim.Bandwidth // shared media write pipe

	Counters Counters
}

// xpBuffer is the write-combining buffer's staging state: an open-addressed
// table of the XPLines being staged, keyed by address, and the FIFO of staged
// addresses that picks the victim when the buffer is full.
type xpBuffer struct {
	slots  []xpSlot // linear probing; four per entry the buffer holds
	shift  uint     // 64 - log2(len(slots))
	n      int      // XPLines staged
	window int      // XPLines the buffer holds

	// fifo holds every staged address in staging order, a ring of queued
	// addresses from head, its length a power of two that doubles when full.
	// An XPLine that completes leaves its address behind, so if it is staged
	// again before that old entry comes up, the old entry evicts it early:
	// the window the write-amplification figures are measured against.
	fifo         []uint64
	head, queued int
}

// xpSlot is one XPLine being staged; mask 0 marks an empty slot.
type xpSlot struct {
	addr uint64 // XPLine-aligned base address
	mask uint8  // which 64 B lines of the XPLine have arrived
}

func newXPBuffer(entries int) xpBuffer {
	bits := uint(2)
	for 1<<bits < 4*entries {
		bits++
	}
	return xpBuffer{slots: make([]xpSlot, 1<<bits), shift: 64 - bits, window: entries}
}

// reset empties the buffer and the FIFO.
func (b *xpBuffer) reset() {
	clear(b.slots)
	b.n = 0
	b.head, b.queued = 0, 0
}

// home is addr's first slot.
func (b *xpBuffer) home(addr uint64) int { return int((addr >> 8) * 0x9E3779B97F4A7C15 >> b.shift) }

// find returns addr's slot, or the empty slot that ends its probe.
func (b *xpBuffer) find(addr uint64) (i int, staged bool) {
	m := len(b.slots) - 1
	for i = b.home(addr); b.slots[i].mask != 0; i = (i + 1) & m {
		if b.slots[i].addr == addr {
			return i, true
		}
	}
	return i, false
}

// stage puts addr, holding the lines in mask, in empty slot i and queues it.
func (b *xpBuffer) stage(i int, addr uint64, mask uint8) {
	b.slots[i] = xpSlot{addr, mask}
	b.n++
	if b.queued == len(b.fifo) {
		grown := make([]uint64, max(64, 2*len(b.fifo)))
		k := copy(grown, b.fifo[b.head:])
		copy(grown[k:], b.fifo[:b.head])
		b.fifo, b.head = grown, 0
	}
	b.fifo[(b.head+b.queued)&(len(b.fifo)-1)] = addr
	b.queued++
}

// unstage empties slot i.
func (b *xpBuffer) unstage(i int) {
	b.n--
	// Backward-shift deletion: each later member of the probe run moves into
	// the hole unless its home lies cyclically in (hole, member].
	m := len(b.slots) - 1
	for next := (i + 1) & m; b.slots[next].mask != 0; next = (next + 1) & m {
		if h := b.home(b.slots[next].addr); (next-h)&m >= (next-i)&m {
			b.slots[i] = b.slots[next]
			i = next
		}
	}
	b.slots[i] = xpSlot{}
}

// evictOldest unstages the XPLine of the first address in the FIFO that is
// still staged, dropping the addresses before it, and returns it.
func (b *xpBuffer) evictOldest() (xpSlot, bool) {
	for b.queued > 0 {
		addr := b.fifo[b.head]
		b.head = (b.head + 1) & (len(b.fifo) - 1)
		b.queued--
		if i, staged := b.find(addr); staged {
			e := b.slots[i]
			b.unstage(i)
			return e, true
		}
	}
	return xpSlot{}, false
}

// NewDevice creates a device with the given capacity in bytes. The XPBuffer
// holds 64 XPLines per modelled DIMM.
func NewDevice(capacity uint64, cm *sim.CostModel) *Device {
	if cm == nil {
		cm = sim.DefaultCosts()
	}
	nChunks := (capacity + chunkSize - 1) / chunkSize
	bufCap := int(cm.XPBufferLines)
	if bufCap <= 0 {
		bufCap = 64 * int(cm.DIMMs)
	}
	return &Device{
		costs:    cm,
		capacity: nChunks * chunkSize,
		chunks:   make([]atomic.Pointer[chunk], nChunks),
		buf:      newXPBuffer(bufCap),
	}
}

// Capacity returns the usable byte capacity.
func (d *Device) Capacity() uint64 { return d.capacity }

// chunk is one allocation unit of the sparse backing store. Software may load
// bytes that another thread is storing — a scan fetching from a table that a
// flush recycles (DESIGN §8.4) — as it may on real media, where a torn read
// is caught by the entry's CRC; mu orders the model's copies of those bytes.
type chunk struct {
	mu sync.RWMutex
	b  []byte
}

func (d *Device) chunk(addr uint64) *chunk {
	idx := addr / chunkSize
	if idx >= uint64(len(d.chunks)) {
		panic(fmt.Sprintf("pmem: address %#x beyond capacity %#x", addr, d.capacity))
	}
	if c := d.chunks[idx].Load(); c != nil {
		return c
	}
	fresh := &chunk{b: make([]byte, chunkSize)}
	if d.chunks[idx].CompareAndSwap(nil, fresh) {
		return fresh
	}
	return d.chunks[idx].Load()
}

// storeRaw copies data into the backing array with no event accounting; it is
// the media content update shared by every write path.
func (d *Device) storeRaw(addr uint64, data []byte) {
	for len(data) > 0 {
		c := d.chunk(addr)
		c.mu.Lock()
		n := copy(c.b[addr%chunkSize:], data)
		c.mu.Unlock()
		data = data[n:]
		addr += uint64(n)
	}
}

// loadRaw copies backing bytes into buf with no event accounting.
func (d *Device) loadRaw(addr uint64, buf []byte) {
	for len(buf) > 0 {
		c := d.chunk(addr)
		c.mu.RLock()
		n := copy(buf, c.b[addr%chunkSize:])
		c.mu.RUnlock()
		buf = buf[n:]
		addr += uint64(n)
	}
}

// StoreRaw writes bytes with no latency or counter accounting. It exists for
// crash-path cache drains and test setup; normal code paths must use
// WriteLines.
func (d *Device) StoreRaw(addr uint64, data []byte) { d.storeRaw(addr, data) }

// LoadRaw reads bytes with no accounting (crash recovery inspection).
func (d *Device) LoadRaw(addr uint64, buf []byte) { d.loadRaw(addr, buf) }

// lineMaskFor returns the XPLine base and the mask bit(s) covered by a 64 B
// cacheline at addr.
func (d *Device) lineMaskFor(addr uint64) (base uint64, bit uint8) {
	xls := uint64(d.costs.XPLineSize)
	base = addr &^ (xls - 1)
	slot := (addr - base) / uint64(d.costs.CacheLineSize)
	return base, 1 << slot
}

func (d *Device) fullMask() uint8 {
	lines := d.costs.XPLineSize / d.costs.CacheLineSize
	return uint8(1<<lines) - 1
}

// WriteLines accepts a run of 64 B cachelines beginning at the line-aligned
// addr. It updates backing content, performs XPBuffer accounting, and charges
// the accessing thread. This is the single entry point for every persisted
// write: cache writebacks, clflush, non-temporal stores, and the direct I/O
// path all funnel here.
func (d *Device) WriteLines(clk *sim.Clock, addr uint64, data []byte) {
	d.writeLines(clk, addr, data, true)
}

// WriteLinesPipelined is WriteLines for streaming stores (non-temporal
// copies): the XPBuffer accept latency overlaps the store pipeline, so the
// caller pays only the store issue cost plus media backpressure, not the
// per-line accept latency.
func (d *Device) WriteLinesPipelined(clk *sim.Clock, addr uint64, data []byte) {
	d.writeLines(clk, addr, data, false)
}

func (d *Device) writeLines(clk *sim.Clock, addr uint64, data []byte, chargeAccept bool) {
	cls := uint64(d.costs.CacheLineSize)
	if addr%cls != 0 || uint64(len(data))%cls != 0 {
		panic("pmem: WriteLines requires cacheline-aligned address and length")
	}
	d.storeRaw(addr, data)
	d.Counters.CallerWriteB.Add(int64(len(data)))
	if cell := clk.Cell(); cell != nil {
		cell.CallerWriteB.Add(int64(len(data)))
	}
	for off := uint64(0); off < uint64(len(data)); off += cls {
		d.acceptLine(clk, addr+off, chargeAccept)
	}
}

// acceptLine performs XPBuffer accounting for one arriving cacheline and
// charges the thread's clock.
func (d *Device) acceptLine(clk *sim.Clock, addr uint64, chargeAccept bool) {
	base, bit := d.lineMaskFor(addr)
	full := d.fullMask()
	cell := clk.Cell()

	d.bufMu.Lock()
	d.Counters.LineArrivals.Add(1)
	if cell != nil {
		cell.LineArrivals.Add(1)
	}
	b := &d.buf
	i, staged := b.find(base)
	if staged {
		d.Counters.LineHits.Add(1)
		if cell != nil {
			cell.LineHits.Add(1)
		}
		b.slots[i].mask |= bit
		if b.slots[i].mask == full {
			// A completed XPLine drains to media immediately; this is the
			// cheap, amplification-free path.
			b.unstage(i)
			d.bufMu.Unlock()
			if chargeAccept {
				clk.Advance(d.costs.XPBufferHit)
			}
			d.drainXPLine(clk, base, full)
			return
		}
		d.bufMu.Unlock()
		if chargeAccept {
			clk.Advance(d.costs.XPBufferHit)
		}
		return
	}
	// Miss: stage the XPLine, evicting the oldest entry if the buffer is
	// full. Evicting a partial entry is the read-modify-write case.
	var evict xpSlot
	var evicted bool
	if b.n >= b.window {
		if evict, evicted = b.evictOldest(); evicted {
			i, _ = b.find(base) // the deletion may have moved base's probe end
		}
	}
	b.stage(i, base, bit)
	d.bufMu.Unlock()

	if chargeAccept {
		clk.Advance(d.costs.XPBufferMiss)
	}
	if evicted {
		d.drainXPLine(clk, evict.addr, evict.mask)
	}
}

// drainXPLine writes one XPLine to media, charging the read-modify-write
// penalty when the staged mask is partial. The media write itself is only
// accounted (counters + the shared-pipe occupancy metric): with four
// interleaved DIMMs the array sustains ~9.2 GB/s, an order of magnitude
// above any workload in the evaluation, so media bandwidth never
// backpressures writers here. A shared virtual pipe was tried and removed —
// threads at different virtual-time bases turned it into a causality
// violation rather than a throughput limit.
func (d *Device) drainXPLine(clk *sim.Clock, base uint64, mask uint8) {
	cell := clk.Cell()
	d.Counters.XPLineEvicts.Add(1)
	d.Counters.MediaWriteB.Add(d.costs.XPLineSize)
	if cell != nil {
		cell.XPLineEvicts.Add(1)
		cell.MediaWriteB.Add(d.costs.XPLineSize)
	}
	if mask != d.fullMask() {
		d.Counters.RMWEvicts.Add(1)
		d.Counters.MediaReadB.Add(d.costs.XPLineSize)
		if cell != nil {
			cell.RMWEvicts.Add(1)
			cell.MediaReadB.Add(d.costs.XPLineSize)
		}
		clk.Advance(d.costs.RMWPenalty)
	}
	perLine := d.costs.MediaWrite / d.costs.DIMMs
	if perLine < 1 {
		perLine = 1
	}
	d.bw.Acquire(clk.Now(), 1, perLine)
	_ = base
}

// Flush drains every staged XPBuffer entry to media. Real hardware does this
// continuously in the background; the model exposes it so tests and
// end-of-run accounting can reach a quiescent state.
func (d *Device) Flush(clk *sim.Clock) {
	d.bufMu.Lock()
	defer d.bufMu.Unlock()
	for _, e := range d.buf.slots {
		if e.mask != 0 {
			d.drainXPLine(clk, e.addr, e.mask)
		}
	}
	d.buf.reset()
}

// PowerCycle resets the device's volatile staging metadata to its power-on
// state. Bytes accepted by the XPBuffer are already durable (storeRaw runs
// before staging accounting, and the buffer sits inside the persistence
// domain on real hardware), but the *combining window itself* does not
// survive a power cycle: a line written after reboot must not combine with
// an XPLine staged before the failure, and the first read after reboot pays
// the random-access latency regardless of where the last pre-crash read
// landed. The cache's Recover calls this; the durable contents and the monotonic
// hardware counters are untouched.
func (d *Device) PowerCycle() {
	d.bufMu.Lock()
	d.buf.reset()
	d.bufMu.Unlock()
	d.lastRead.Store(0)
}

// Read copies len(buf) bytes at addr into buf and charges them as ChargeRead
// does.
func (d *Device) Read(clk *sim.Clock, addr uint64, buf []byte) {
	d.loadRaw(addr, buf)
	d.ChargeRead(clk, addr, uint64(len(buf)))
}

// ChargeRead books a read of the n bytes at addr without copying them: one
// media read per XPLine touched, sequential reads (each following the
// previous read address) at the lower sequential latency. A caller that
// decodes the bytes later, through LoadRaw, pays exactly what Read would.
func (d *Device) ChargeRead(clk *sim.Clock, addr, n uint64) {
	if n == 0 {
		return
	}
	cell := clk.Cell()
	xls := uint64(d.costs.XPLineSize)
	first := addr &^ (xls - 1)
	last := (addr + n - 1) &^ (xls - 1)
	for line := first; ; line += xls {
		prev := d.lastRead.Swap(line)
		switch {
		case line == prev:
			// Same XPLine as the previous read: served from the DIMM's
			// internal read buffer, not the media.
			clk.Advance(d.costs.PMemReadSeq / 8)
		case line == prev+xls:
			clk.Advance(d.costs.PMemReadSeq)
			d.Counters.MediaReadB.Add(int64(xls))
			if cell != nil {
				cell.MediaReadB.Add(int64(xls))
			}
		default:
			clk.Advance(d.costs.PMemReadRand)
			d.Counters.MediaReadB.Add(int64(xls))
			if cell != nil {
				cell.MediaReadB.Add(int64(xls))
			}
		}
		if line == last {
			break
		}
	}
}

// Snapshot copies the hardware counters.
func (d *Device) Snapshot() CountersSnapshot {
	return CountersSnapshot{
		LineArrivals: d.Counters.LineArrivals.Load(),
		LineHits:     d.Counters.LineHits.Load(),
		XPLineEvicts: d.Counters.XPLineEvicts.Load(),
		RMWEvicts:    d.Counters.RMWEvicts.Load(),
		MediaReadB:   d.Counters.MediaReadB.Load(),
		MediaWriteB:  d.Counters.MediaWriteB.Load(),
		CallerWriteB: d.Counters.CallerWriteB.Load(),
	}
}
