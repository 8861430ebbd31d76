// This file is the PMem device as it was before the XPBuffer's staging state
// became fixed arrays (an entry map, a free list and a FIFO slice), kept
// verbatim below this comment but for the package clause, as the reference
// that differential_test.go holds the staging table to: the same hits,
// evictions, read-modify-writes, clock charges and tally cells for the same
// stream of arriving lines.

package pmem_test

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

// xpEntry is one XPLine being staged in the write-combining buffer.
type xpEntry struct {
	addr uint64 // XPLine-aligned base address
	mask uint8  // which 64 B lines of the XPLine have arrived
	tick uint64 // insertion order, for FIFO eviction
}

// Device is the simulated PMem module array.
type Device struct {
	costs    *sim.CostModel
	capacity uint64

	chunks []atomic.Pointer[[]byte]

	// XPBuffer state: a FIFO write-combining window. Real Optane stages
	// ~16 KB per DIMM in the XPBuffer proper, but the effective coalescing
	// window observed through the iMC write-pending queues is larger; the
	// model's window is a calibration constant (see sim.CostModel).
	bufMu    sync.Mutex
	buf      map[uint64]*xpEntry
	free     []*xpEntry // entries that left buf, for the next staged XPLine
	fifo     []uint64
	bufCap   int
	bufTick  uint64
	lastRead atomic.Uint64 // last media read address, for seq/rand latency

	bw sim.Bandwidth // shared media write pipe

	Counters Counters
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
		chunks:   make([]atomic.Pointer[[]byte], nChunks),
		buf:      make(map[uint64]*xpEntry),
		bufCap:   bufCap,
	}
}

// Capacity returns the usable byte capacity.
func (d *Device) Capacity() uint64 { return d.capacity }

func (d *Device) chunk(addr uint64) []byte {
	idx := addr / chunkSize
	if idx >= uint64(len(d.chunks)) {
		panic(fmt.Sprintf("pmem: address %#x beyond capacity %#x", addr, d.capacity))
	}
	if p := d.chunks[idx].Load(); p != nil {
		return *p
	}
	fresh := make([]byte, chunkSize)
	if d.chunks[idx].CompareAndSwap(nil, &fresh) {
		return fresh
	}
	return *d.chunks[idx].Load()
}

// storeRaw copies data into the backing array with no event accounting; it is
// the media content update shared by every write path.
func (d *Device) storeRaw(addr uint64, data []byte) {
	for len(data) > 0 {
		c := d.chunk(addr)
		off := addr % chunkSize
		n := copy(c[off:], data)
		data = data[n:]
		addr += uint64(n)
	}
}

// loadRaw copies backing bytes into buf with no event accounting.
func (d *Device) loadRaw(addr uint64, buf []byte) {
	for len(buf) > 0 {
		c := d.chunk(addr)
		off := addr % chunkSize
		n := copy(buf, c[off:])
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
	e, ok := d.buf[base]
	if ok {
		d.Counters.LineHits.Add(1)
		if cell != nil {
			cell.LineHits.Add(1)
		}
		e.mask |= bit
		if e.mask == full {
			// A completed XPLine drains to media immediately; this is the
			// cheap, amplification-free path.
			delete(d.buf, base)
			d.free = append(d.free, e)
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
	// Miss: allocate a staging slot, evicting the oldest entry if the buffer
	// is full. Evicting a partial entry is the read-modify-write case.
	var evicted bool
	var evict xpEntry
	for len(d.buf) >= d.bufCap && len(d.fifo) > 0 {
		oldestAddr := d.fifo[0]
		d.fifo = d.fifo[1:]
		if e, ok := d.buf[oldestAddr]; ok {
			evicted, evict = true, *e
			delete(d.buf, oldestAddr)
			d.free = append(d.free, e)
			break
		}
	}
	d.bufTick++
	if n := len(d.free); n > 0 {
		e, d.free = d.free[n-1], d.free[:n-1]
	} else {
		e = new(xpEntry)
	}
	*e = xpEntry{addr: base, mask: bit, tick: d.bufTick}
	d.buf[base] = e
	d.fifo = append(d.fifo, base)
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
	entries := make([]*xpEntry, 0, len(d.buf))
	for _, e := range d.buf {
		entries = append(entries, e)
	}
	d.buf = make(map[uint64]*xpEntry)
	d.fifo = d.fifo[:0]
	d.bufMu.Unlock()
	for _, e := range entries {
		d.drainXPLine(clk, e.addr, e.mask)
	}
}

// PowerCycle resets the device's volatile staging metadata to its power-on
// state. Bytes accepted by the XPBuffer are already durable (storeRaw runs
// before staging accounting, and the buffer sits inside the persistence
// domain on real hardware), but the *combining window itself* does not
// survive a power cycle: a line written after reboot must not combine with
// an XPLine staged before the failure, and the first read after reboot pays
// the random-access latency regardless of where the last pre-crash read
// landed. Machine.Recover calls this; the durable contents and the monotonic
// hardware counters are untouched.
func (d *Device) PowerCycle() {
	d.bufMu.Lock()
	d.buf = make(map[uint64]*xpEntry)
	d.fifo = d.fifo[:0]
	d.bufMu.Unlock()
	d.lastRead.Store(0)
}

// Read copies n bytes at addr into buf, charging one media read per XPLine
// touched. Sequential reads (each following the previous read address) are
// charged the lower sequential latency.
func (d *Device) Read(clk *sim.Clock, addr uint64, buf []byte) {
	if len(buf) == 0 {
		return
	}
	d.loadRaw(addr, buf)
	cell := clk.Cell()
	xls := uint64(d.costs.XPLineSize)
	first := addr &^ (xls - 1)
	last := (addr + uint64(len(buf)) - 1) &^ (xls - 1)
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
