package core

// batch.go is the whole write path of one engine. Every mutation is a Batch —
// Put, Delete and DeleteRange are one-op batches — entering through Write and
// landing through commitOps, the only code that appends to a sub-MemTable:
// Section III-A's "append into the core's sub-MemTable, then one CAS on the
// packed header", with counter += n for a multi-key transaction.

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/util"
)

// Batch is a multi-key transaction in the sense of Section III-A's
// discussion: all of its writes are appended to the *same* sub-MemTable (the
// transaction thread is bound to one core) and committed by a single CAS on
// the packed header — so after a crash either every entry of the batch is
// visible or none is.
type Batch struct {
	ops []batchOp
}

type batchOp struct {
	key   []byte
	value []byte // the exclusive end key for KindRangeDel
	kind  util.ValueKind
	// seq is the version Write drew for the op (batch-log replay reads it
	// back from the batch record).
	seq uint64
}

// slotLen is the op's footprint in a sub-MemTable: the encoded entry padded
// so offsets stay 8-byte aligned (the recovery scanner and lazy sync both
// rely on it).
func (op *batchOp) slotLen() uint64 {
	return align8(uint64(kvstore.EntryLen(len(op.key), len(op.value))))
}

// opsSlotLen is the footprint of ops committed together.
func opsSlotLen(ops []batchOp) uint64 {
	var need uint64
	for i := range ops {
		need += ops[i].slotLen()
	}
	return need
}

func align8(n uint64) uint64 { return (n + 7) &^ 7 }

// maxScratchBytes is the largest encode buffer a thread keeps between writes;
// a larger batch's buffer is dropped after it.
const maxScratchBytes = 64 << 10

// Put queues a write into the batch.
func (b *Batch) Put(key, value []byte) {
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), key...),
		value: append([]byte(nil), value...),
		kind:  util.KindValue,
	})
}

// Delete queues a tombstone into the batch.
func (b *Batch) Delete(key []byte) {
	b.ops = append(b.ops, batchOp{key: append([]byte(nil), key...), kind: util.KindDelete})
}

// DeleteRange queues a range tombstone covering [start, end) into the batch —
// O(1) in the range's size. Like the point ops it commits atomically with the
// rest of the batch. A start >= end range is empty and queues nothing.
func (b *Batch) DeleteRange(start, end []byte) {
	if bytes.Compare(start, end) >= 0 {
		return
	}
	b.ops = append(b.ops, batchOp{
		key:   append([]byte(nil), start...),
		value: append([]byte(nil), end...),
		kind:  util.KindRangeDel,
	})
}

// Borrow resets b to the single point operation {kind, key, value} WITHOUT
// Put's and Delete's defensive copies: key and value must stay untouched
// until Write returns. One-op callers that reuse a Batch ride the batch path
// through it allocation-free. The batch keeps both slices referenced until its
// next Borrow; borrow nils afterwards to release them.
func (b *Batch) Borrow(kind util.ValueKind, key, value []byte) *Batch {
	b.ops = append(b.ops[:0], batchOp{key: key, value: value, kind: kind})
	return b
}

// Len returns the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Write commits b atomically; it is the only way a mutation enters the
// engine. deadlineNs bounds (in virtual ns from now) how long admission or a
// slot wait may stall the write before it fails with ErrStalled; <= 0 waits
// indefinitely. Admission and the deadline are checked before any state
// changes, so a rejected batch is fully absent. A batch larger than a
// sub-MemTable's capacity is rejected.
func (e *Engine) Write(th *hw.Thread, b *Batch, deadlineNs int64) error {
	if len(b.ops) == 0 {
		return nil
	}
	if err := e.err(); err != nil {
		return err
	}
	deadlineV := absDeadline(th, deadlineNs)
	err := e.flow.admitWrite(th, deadlineV)
	if err == nil {
		assignSeqs(e.seq, b.ops)
		err = e.commitOps(th, b.ops, deadlineV)
	}
	return e.flow.countStall(err)
}

// assignSeqs draws len(ops) consecutive sequence numbers for ops.
func assignSeqs(seq *atomic.Uint64, ops []batchOp) {
	n := uint64(len(ops))
	first := seq.Add(n) - n + 1
	for i := range ops {
		ops[i].seq = first + uint64(i)
	}
}

// Put implements kvstore.DB.
func (e *Engine) Put(th *hw.Thread, key, value []byte) error {
	op := [1]batchOp{{key: key, value: value, kind: util.KindValue}}
	return e.Write(th, &Batch{ops: op[:]}, e.opts.WriteStallDeadline)
}

// Delete implements kvstore.DB (a tombstone append).
func (e *Engine) Delete(th *hw.Thread, key []byte) error {
	op := [1]batchOp{{key: key, kind: util.KindDelete}}
	return e.Write(th, &Batch{ops: op[:]}, e.opts.WriteStallDeadline)
}

// commitOps appends ops (sequence numbers already assigned) to the calling
// core's sub-MemTable and commits them all with a single CAS on the packed
// header — the one commit primitive behind Write, the cross-shard apply, and
// batch-log recovery replay. Range tombstones are ordinary entries
// (internal key start@seq with KindRangeDel, value = end key): riding the
// same commit, flush and spill path is what makes them crash-durable.
//
// deadlineV bounds the slot wait (0 = none). Callers that must not fail —
// the cross-shard apply past its record's fence, recovery replay — pass 0; a
// deadline expiry surfaces before the commit CAS, so a stalled batch is
// fully absent.
func (e *Engine) commitOps(th *hw.Thread, ops []batchOp, deadlineV int64) error {
	if err := e.err(); err != nil {
		return err
	}
	if len(ops) == 0 {
		return nil
	}
	// Every entry is encoded straight into the calling thread's buffer, sized
	// once; the buffer is reused (unless an outsize batch grew it past what a
	// thread should pin), so the padding between entries is zeroed by hand.
	need := opsSlotLen(ops)
	enc := util.Sized(th.Scratch.Enc, int(need))[:0]
	for i := range ops {
		op := &ops[i]
		enc = kvstore.AppendEntry(enc, op.key, util.PackTrailer(op.seq, op.kind), op.value)
		for len(enc)%8 != 0 {
			enc = append(enc, 0)
		}
	}
	if cap(enc) <= maxScratchBytes {
		th.Scratch.Enc = enc
	}
	n := uint64(len(ops))

	// Global metadata structure lookup: one DRAM access (Section III-A).
	core := th.Core
	th.ChargeDRAM(1)
	for {
		s := e.pool.slotFor(core)
		if s == nil {
			var aerr error
			th.InPhase(hw.PhaseOther, func() {
				s, aerr = e.pool.acquire(th, core, ops[0].seq, deadlineV)
			})
			if aerr != nil {
				return aerr // ErrStalled before any append: nothing committed
			}
			if s == nil {
				// The pool aborted: the engine failed while we waited.
				if err := e.err(); err != nil {
					return err
				}
				continue
			}
		}
		if need > s.dataCap() {
			return fmt.Errorf("cachekv: batch of %d bytes exceeds sub-MemTable capacity %d",
				need, s.dataCap())
		}
		s.appendMu.Lock()
		hdr := s.hdr.Load()
		count, state, tail := unpackHdr(hdr)
		if state != stateAllocated {
			s.appendMu.Unlock()
			// Slot was sealed under us (FlushAll); drop the mapping and retry.
			e.pool.coreSlot[core].CompareAndSwap(int32(s.idx), -1)
			continue
		}
		if tail+need > s.dataCap() {
			s.appendMu.Unlock()
			// Full: seal, queue the copy-based flush, grab a fresh one.
			if sealed := e.pool.sealForCore(th, core); sealed != nil {
				e.queueSealed(th.Clock.Now(), sealed)
			}
			continue
		}
		th.InPhase(hw.PhaseAppend, func() {
			e.m.Cache.Write(th.Clock, s.dataAddr()+tail, enc, e.poolPart)
		})
		// Enter every point version in the active-key table BEFORE the commit
		// CAS: any entry a reader can observe as committed is already there,
		// so a table miss proves the key is in no active slot. One DRAM
		// access for the commit's table writes. A failed CAS re-appends and
		// re-enters the ops at their new offsets; a range tombstone is covered
		// by the DRAM mirror below instead.
		th.ChargeDRAM(1)
		for i, off := 0, tail; i < len(ops); i++ {
			if op := &ops[i]; op.kind != util.KindRangeDel {
				e.enterActive(s, op.key, util.PackTrailer(op.seq, op.kind), off)
			}
			off += ops[i].slotLen()
		}
		// The commit point: counter += len(ops), tail += need, in one atomic
		// compare-and-swap (the persistence point).
		committed := e.pool.casHdr(th, s, hdr, packHdr(count+n, stateAllocated, tail+need))
		s.appendMu.Unlock()
		if !committed {
			continue
		}
		for i := range ops {
			op := &ops[i]
			switch op.kind {
			case util.KindValue:
				e.stats.Puts.Add(1)
			case util.KindDelete:
				e.stats.Deletes.Add(1)
			case util.KindRangeDel:
				// Mirror the committed tombstone in DRAM before the call
				// returns, so any Get starting afterwards observes the coverage.
				e.rangeTombs.add(lsm.RangeDel{
					Start: append([]byte(nil), op.key...),
					End:   append([]byte(nil), op.value...),
					Seq:   op.seq,
				})
				e.stats.RangeDeletes.Add(1)
			}
		}
		if e.opts.LazyIndex {
			// Trigger 2: whenever the table counter crosses a multiple of
			// SyncThreshold, the index thread syncs the slot from now.
			if (count+n)%uint64(e.opts.SyncThreshold) < n {
				e.indexSync(th.Clock.Now(), s)
			}
			return nil
		}
		// PCSM mode: diligently update the sub-skiplist on the spot.
		th.InPhase(hw.PhaseIndex, func() {
			s.syncMu.Lock()
			defer s.syncMu.Unlock()
			if s.list == nil {
				return
			}
			charge := func(visits int) {
				th.Clock.Advance(int64(visits) * (e.m.Costs.DRAMAccess + e.m.Costs.SkiplistVisit) / 8)
			}
			off := tail
			for i := range ops {
				op := &ops[i]
				s.index(kvstore.Entry{UKey: op.key, Trailer: util.PackTrailer(op.seq, op.kind)}, off, charge)
				off += op.slotLen()
			}
			// Two threads on one core insert in either order; the cursor only
			// ever moves forward, to the later commit.
			if count+n > s.listCount {
				s.listCount, s.listTail = count+n, tail+need
			}
		})
		return nil
	}
}
