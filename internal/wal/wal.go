// Package wal implements a LevelDB-format write-ahead log over a PMem
// region: 32 KiB blocks, records fragmented as FULL/FIRST/MIDDLE/LAST chunks,
// each chunk protected by a masked CRC. The same log format backs both the
// engines' write-ahead logs and the LSM manifest.
//
// Writes go through non-temporal stores (the PMem WAL path of FlatStore and
// friends); on recovery, Reader replays records up to the first corrupt or
// absent chunk, which is exactly the prefix that was durable at the crash.
package wal

import (
	"errors"
	"fmt"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/util"
)

const (
	// BlockSize is the log block size; chunks never span blocks.
	BlockSize = 32 << 10
	headerLen = 7 // crc(4) + length(2) + type(1)

	chunkFull   = 1
	chunkFirst  = 2
	chunkMiddle = 3
	chunkLast   = 4
)

// ErrFull is returned when the region cannot hold another record.
var ErrFull = errors.New("wal: log region full")

// Mode selects how log bytes reach the PMem.
type Mode int

const (
	// ModeNT streams records with non-temporal stores (the default: how
	// PMem-native logs and the LSM manifest are written).
	ModeNT Mode = iota
	// ModeFlush uses ordinary stores followed by clwb + fence — the ADR-era
	// discipline of the vanilla baselines.
	ModeFlush
	// ModeCached uses plain stores with no flush, as the "-w/o-flush"
	// variants do on eADR: record bytes linger dirty in the LLC and reach
	// the media only via capacity eviction.
	ModeCached
)

// Writer appends records to a region. Not safe for concurrent use; engines
// serialize WAL appends (that serialization is part of what the paper's
// Figure 5(b) charges to the write path).
type Writer struct {
	m      *hw.Machine
	region hw.Region
	mode   Mode
	off    uint64 // next write offset relative to region start
	buf    []byte
}

// NewWriter starts a fresh log at the head of region. Any previous contents
// are superseded: the first block is zeroed so stale chunks cannot be
// replayed past the new tail.
func NewWriter(m *hw.Machine, region hw.Region, th *hw.Thread) *Writer {
	return NewWriterMode(m, region, th, ModeNT)
}

// NewWriterMode starts a fresh log with an explicit persistence discipline.
func NewWriterMode(m *hw.Machine, region hw.Region, th *hw.Thread, mode Mode) *Writer {
	w := &Writer{m: m, region: region, mode: mode}
	w.zeroAhead(th)
	return w
}

// zeroAhead clears the block at the current offset so that replay stops here.
func (w *Writer) zeroAhead(th *hw.Thread) {
	blockOff := w.off - w.off%BlockSize
	if blockOff >= w.region.Size {
		return
	}
	n := uint64(BlockSize)
	if blockOff+n > w.region.Size {
		n = w.region.Size - blockOff
	}
	zero := make([]byte, n)
	w.m.Cache.NTWrite(th.Clock, w.region.Addr+blockOff, zero)
}

// Append writes one record durably and returns its starting offset.
func (w *Writer) Append(th *hw.Thread, rec []byte) (uint64, error) {
	start := w.off
	first := true
	data := rec
	for {
		blockLeft := BlockSize - w.off%BlockSize
		if blockLeft < headerLen {
			// Pad the block tail with zeros.
			if w.off+blockLeft > w.region.Size {
				return 0, ErrFull
			}
			pad := make([]byte, blockLeft)
			w.m.Cache.NTWrite(th.Clock, w.region.Addr+w.off, pad)
			w.off += blockLeft
			blockLeft = BlockSize
		}
		avail := blockLeft - headerLen
		frag := data
		if uint64(len(frag)) > avail {
			frag = frag[:avail]
		}
		var typ byte
		switch {
		case first && len(frag) == len(data):
			typ = chunkFull
		case first:
			typ = chunkFirst
		case len(frag) == len(data):
			typ = chunkLast
		default:
			typ = chunkMiddle
		}
		if err := w.emit(th, typ, frag); err != nil {
			return 0, err
		}
		data = data[len(frag):]
		first = false
		if len(data) == 0 && typ != chunkFirst && typ != chunkMiddle {
			return start, nil
		}
	}
}

func (w *Writer) emit(th *hw.Thread, typ byte, frag []byte) error {
	need := uint64(headerLen + len(frag))
	if w.off+need > w.region.Size {
		return ErrFull
	}
	w.buf = w.buf[:0]
	crcBody := append([]byte{typ}, frag...)
	w.buf = util.PutFixed32(w.buf, util.MaskCRC(util.CRC(crcBody)))
	w.buf = append(w.buf, byte(len(frag)), byte(len(frag)>>8), typ)
	w.buf = append(w.buf, frag...)
	addr := w.region.Addr + w.off
	// A WAL append is a file write + sync on the paper's systems: charge the
	// syscall/kernel-I/O share on top of the store path itself.
	th.Clock.Advance(w.m.Costs.SyscallWrite)
	switch w.mode {
	case ModeFlush:
		w.m.Cache.Write(th.Clock, addr, w.buf, cache.DefaultPartition)
		w.m.Cache.FlushOpt(th.Clock, addr, len(w.buf))
	case ModeCached:
		w.m.Cache.Write(th.Clock, addr, w.buf, cache.DefaultPartition)
	default:
		w.m.Cache.NTWrite(th.Clock, addr, w.buf)
	}
	w.off += need
	return nil
}

// Offset returns the current log tail offset.
func (w *Writer) Offset() uint64 { return w.off }

// Reset truncates the log: subsequent appends start from the head again.
func (w *Writer) Reset(th *hw.Thread) {
	w.off = 0
	w.zeroAhead(th)
}

// Reader replays records from the head of a region.
type Reader struct {
	m      *hw.Machine
	region hw.Region
	off    uint64
}

// NewReader opens region for replay.
func NewReader(m *hw.Machine, region hw.Region) *Reader {
	return &Reader{m: m, region: region}
}

// Next returns the next record, or (nil, false) at the durable end of the
// log (zero block, bad CRC, or region end). Partial trailing records —
// a FIRST chunk never completed by its LAST — also terminate replay.
func (r *Reader) Next(th *hw.Thread) ([]byte, bool) {
	var rec []byte
	assembling := false
	for {
		blockLeft := BlockSize - r.off%BlockSize
		if blockLeft < headerLen {
			r.off += blockLeft
			continue
		}
		if !util.InExtent(r.off, headerLen, r.region.Size) {
			return nil, false
		}
		var hdr [headerLen]byte
		r.m.PMem.Read(th.Clock, r.region.Addr+r.off, hdr[:])
		c := util.NewCursor(hdr[:])
		crc, lo, hi, typ := c.U32(), c.U8(), c.U8(), c.U8()
		length := uint64(lo) | uint64(hi)<<8
		if typ == 0 || typ > chunkLast || headerLen+length > blockLeft ||
			!util.InExtent(r.off, headerLen+length, r.region.Size) {
			return nil, false
		}
		frag := make([]byte, length)
		r.m.PMem.Read(th.Clock, r.region.Addr+r.off+headerLen, frag)
		crcBody := append([]byte{typ}, frag...)
		if util.UnmaskCRC(crc) != util.CRC(crcBody) {
			return nil, false
		}
		r.off += headerLen + length
		switch typ {
		case chunkFull:
			if assembling {
				return nil, false // FIRST without LAST: treat as torn tail
			}
			return frag, true
		case chunkFirst:
			if assembling {
				return nil, false
			}
			assembling = true
			rec = append(rec[:0], frag...)
		case chunkMiddle:
			if !assembling {
				return nil, false
			}
			rec = append(rec, frag...)
		case chunkLast:
			if !assembling {
				return nil, false
			}
			return append(rec, frag...), true
		}
	}
}

// ReplayAll reads every durable record, invoking fn on each.
func (r *Reader) ReplayAll(th *hw.Thread, fn func(rec []byte) error) error {
	for {
		rec, ok := r.Next(th)
		if !ok {
			return nil
		}
		if err := fn(rec); err != nil {
			return fmt.Errorf("wal: replay: %w", err)
		}
	}
}
