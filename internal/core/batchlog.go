package core

// batchlog.go commits atomic batches whose keys span several shards
// (DESIGN.md §8.3). One header CAS commits a batch on one sub-MemTable; a
// batch with portions on several shards needs a commit point outside them, so
// the router writes every portion, in ascending shard order, into one record
// of one log (cachekv.2pc):
//
//	'B' | batchID u64 | nportions u32 |
//	    { shard u32 | nops u32 |
//	        { kind u8 | seq u64 | klen u32 | vlen u32 | key | value } * nops } * nportions
//
// The record's fence is the batch's commit point; only then are the portions
// applied to their shards. Recovery replays every intact record into its
// shards (idempotently — the recorded sequence numbers are reused, so a replay
// over an already-recovered entry resolves to the same version). A torn
// record ends the durable prefix: its batch never committed and no shard holds
// any of it. Either every shard's portion becomes visible or none does.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// batchLogBytes sizes the router's batch log. The batch that leaves it past
// half with nothing applying resets it, so at rest the signal flow control
// reads off it stays below its Slowdown bound (3/4).
const batchLogBytes = 512 << 10

// maxBatchRecord is the largest record that fits in the half of the log
// that is free whenever an append starts, so an append never finds the log
// full. The wal frames a record as one chunk per 32 KiB block it touches,
// each paying a 7-byte header and at most 6 bytes of block-tail padding;
// TestMaxBatchRecordFitsTheLog holds this to the real writer.
const maxBatchRecord = batchLogBytes/2 - (batchLogBytes/2/wal.BlockSize+2)*(7+6)

const batchTag = byte('B')

// shardPortion is the slice of a cross-shard batch owned by one shard.
type shardPortion struct {
	shard int
	ops   []batchOp
}

// batchLog owns the router's batch log and the in-flight bookkeeping.
type batchLog struct {
	sh *Sharded

	mu       sync.Mutex
	cond     *sync.Cond
	w        *wal.Writer
	rg       hw.Region
	buf      []byte // the record being appended, reused under mu
	nextID   uint64
	inflight int // committed batches whose portions are still being applied

	// bytes mirrors the log offset after every append and reset: each shard's
	// flow controller reads it as the WAL pressure signal without
	// contending on mu.
	bytes atomic.Uint64
}

// newBatchLog builds the bookkeeping; open brings up the log.
func newBatchLog(sh *Sharded) *batchLog {
	l := &batchLog{sh: sh, nextID: 1}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// open allocates the log, or recovers and replays an existing one. Shard
// engines must already be open: replay feeds committed portions back through
// each shard's commitOps.
func (l *batchLog) open(th *hw.Thread) error {
	var recovered bool
	l.rg, recovered = l.sh.m.FindOrAlloc("cachekv.2pc", batchLogBytes, 0)
	if recovered {
		if err := l.replay(th); err != nil {
			return err
		}
		// Everything replayed now lives in the shards' sub-MemTables. Every
		// open of an existing log clears all of it, not just the head block a
		// fresh writer zeroes: batch ids restart above the replayed prefix
		// only, so a leftover record past it could otherwise pass replay's
		// growing-id check next time.
		l.sh.m.Cache.NTWrite(th.Clock, l.rg.Addr, make([]byte, l.rg.Size))
	}
	l.w = wal.NewWriter(l.sh.m, l.rg, th)
	return nil
}

// replay applies every record of the durable prefix to its shards. The
// prefix ends at the first record that is torn, malformed, or older than the
// one before it: batch ids only grow, so an intact record with a smaller id
// is a leftover from before a reset (which zeroes only the head block), past
// the tail the reset started.
func (l *batchLog) replay(th *hw.Thread) error {
	sh := l.sh
	var lastID, maxSeq uint64
	replayed := 0
	var err error
	th.InPhase(hw.PhaseRecovery, func() {
		r := wal.NewReader(sh.m, l.rg)
		for err == nil {
			rec, ok := r.Next(th)
			if !ok {
				return
			}
			id, portions, ok := decodeBatch(rec, len(sh.shards))
			if !ok || id <= lastID {
				return
			}
			lastID = id
			for _, p := range portions {
				for _, op := range p.ops {
					maxSeq = max(maxSeq, op.seq)
				}
				// Replay must complete regardless of overload state: no
				// admission, no deadline (the batch already committed).
				if err = sh.shards[p.shard].commitOps(th, p.ops, 0); err != nil {
					break
				}
			}
			replayed++
		}
	})
	if err != nil {
		return fmt.Errorf("cachekv: batch log replay: %w", err)
	}
	// The shared counter may lag the replayed sequence numbers.
	for {
		cur := sh.seq.Load()
		if maxSeq <= cur || sh.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	l.nextID = lastID + 1
	sh.trace.Emit(th.Clock.Now(), "batchlog_recovery", "replayed", replayed, "next_id", l.nextID)
	return nil
}

// recordLen is the length of the record that carries portions.
func recordLen(portions []shardPortion) int {
	n := 1 + 8 + 4
	for _, p := range portions {
		n += 4 + 4
		for _, op := range p.ops {
			n += 17 + len(op.key) + len(op.value)
		}
	}
	return n
}

// appendBatch appends batch id's record to rec.
func appendBatch(rec []byte, id uint64, portions []shardPortion) []byte {
	rec = append(rec, batchTag)
	rec = util.PutFixed64(rec, id)
	rec = util.PutFixed32(rec, uint32(len(portions)))
	for _, p := range portions {
		rec = util.PutFixed32(rec, uint32(p.shard))
		rec = util.PutFixed32(rec, uint32(len(p.ops)))
		for _, op := range p.ops {
			rec = append(rec, byte(op.kind))
			rec = util.PutFixed64(rec, op.seq)
			rec = util.PutFixed32(rec, uint32(len(op.key)))
			rec = util.PutFixed32(rec, uint32(len(op.value)))
			rec = append(rec, op.key...)
			rec = append(rec, op.value...)
		}
	}
	return rec
}

// decodeBatch parses the record of a batch on a router of n shards. It
// refuses anything the router would not have written: a torn record, bytes
// left over, a count the record cannot hold, fewer than two portions, a shard
// >= n, shards that do not strictly ascend (so none repeats), an empty
// portion. Keys and values alias rec.
func decodeBatch(rec []byte, n int) (id uint64, portions []shardPortion, ok bool) {
	c := util.NewCursor(rec)
	tag := c.U8()
	id = c.U64()
	portions = make([]shardPortion, c.Count(uint64(c.U32()), 8+17)) // a portion's fixed fields and one op's
	prev := -1
	for i := range portions {
		shard := uint64(c.U32())
		ops := make([]batchOp, c.Count(uint64(c.U32()), 17)) // 17: an op's fixed fields
		if shard >= uint64(n) || int(shard) <= prev || len(ops) == 0 {
			return 0, nil, false
		}
		for j := range ops {
			op := &ops[j]
			op.kind, op.seq = util.ValueKind(c.U8()), c.U64()
			klen, vlen := uint64(c.U32()), uint64(c.U32())
			op.key, op.value = c.Bytes(klen), c.Bytes(vlen)
		}
		prev = int(shard)
		portions[i] = shardPortion{shard: prev, ops: ops}
	}
	if tag != batchTag || len(portions) < 2 || !c.Done() {
		return 0, nil, false
	}
	return id, portions, true
}

// maybeResetLocked truncates the log once it is past half and no committed
// batch is still applying, and reports whether it did. Safe because every
// batch recorded in the log has then fully applied to its shards'
// sub-MemTables.
func (l *batchLog) maybeResetLocked(th *hw.Thread) bool {
	if l.inflight > 0 || l.w.Offset() <= l.rg.Size/2 {
		return false
	}
	l.w.Reset(th)
	l.bytes.Store(l.w.Offset())
	return true
}

// recomputeFlow lets every shard whose admission is shaped re-read the pressure
// signals after a reset. Flow control polls them only on a shard's lifecycle
// events, so a state the full log drove up would otherwise hold until that
// shard's next seal or flush.
func (l *batchLog) recomputeFlow(th *hw.Thread) {
	for _, e := range l.sh.shards {
		if e.flow.current() != FlowOK {
			e.flow.recompute(th.Clock.Now(), "batchlog_reset")
		}
	}
}

// commit commits a cross-shard batch: one record holding every portion
// (ascending shard order), one fence — the commit point — and then each
// portion is applied to its shard. The caller's thread does all of it: the
// append under l.mu, so the persistence-op stream is deterministic for a
// single-threaded workload (crashsweep relies on this), and the apply into
// the caller's core's slot of every participant, as replay does.
//
// deadlineV (0 = none) is enforced strictly BEFORE the record: every
// participant shard must admit the batch, and the deadline is re-checked
// after any log-reset wait. Once the record's fence lands the batch is
// committed and the apply runs without a deadline.
func (l *batchLog) commit(th *hw.Thread, portions []shardPortion, deadlineV int64) error {
	// Capacity pre-check, before admission and before any store: every
	// portion must replay into the smallest slot elasticity can produce, and
	// the whole record must fit in the half of the log free at every append.
	for _, p := range portions {
		if opsSlotLen(p.ops) > minSlotBytes-slotHdrSize {
			return errBatchTooLarge
		}
	}
	if recordLen(portions) > maxBatchRecord {
		return errBatchTooLarge
	}

	sh := l.sh
	// Admission on every participant shard, before any durable state: one
	// overloaded participant rejects the whole batch with nothing to undo.
	for _, p := range portions {
		if err := sh.shards[p.shard].flow.admitWrite(th, deadlineV); err != nil {
			return err
		}
	}

	l.mu.Lock()
	if sh.closed.Load() {
		l.mu.Unlock()
		return kvstore.ErrClosed
	}
	// A log past half is reset by the batch that leaves nothing applying
	// (below). A crash-stop ends the wait too: an applying batch returns once
	// its shard failed.
	for l.inflight > 0 && l.w.Offset() > l.rg.Size/2 {
		l.cond.Wait()
	}
	if deadlineV > 0 && th.Clock.Now() >= deadlineV {
		// The reset wait (or earlier admission delays) consumed the deadline;
		// still nothing written, so the batch can fail cleanly.
		l.mu.Unlock()
		return ErrStalled
	}
	l.buf = appendBatch(l.buf[:0], l.nextID, portions)
	l.nextID++
	var logErr error
	th.InPhase(hw.PhaseWAL, func() {
		if _, logErr = l.w.Append(th, l.buf); logErr != nil {
			return
		}
		l.bytes.Store(l.w.Offset())
		// The record is durable: the batch's commit point.
		th.Clock.Advance(sh.m.Costs.Fence)
	})
	if cap(l.buf) > maxScratchBytes {
		l.buf = nil
	}
	if logErr != nil {
		l.mu.Unlock()
		return fmt.Errorf("cachekv: batch log: %w", logErr)
	}
	l.inflight++
	l.mu.Unlock()

	// No deadline: the record already landed, so the apply must run to
	// completion however stalled a shard is.
	var applyErr error
	for _, p := range portions {
		if err := sh.shards[p.shard].commitOps(th, p.ops, 0); err != nil && applyErr == nil {
			applyErr = err
		}
	}

	l.mu.Lock()
	l.inflight--
	// A batch that failed to apply keeps its record, the only copy of it.
	reset := applyErr == nil && l.maybeResetLocked(th)
	l.cond.Broadcast()
	l.mu.Unlock()
	if reset {
		l.recomputeFlow(th)
	}
	sh.crossBatches.Add(1)
	return applyErr
}
