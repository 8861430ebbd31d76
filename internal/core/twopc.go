package core

// twopc.go implements the two-phase commit protocol for cross-shard atomic
// batches (DESIGN.md §8.3). A batch whose keys span several shards cannot be
// committed by one header CAS, so the router writes write-ahead records:
//
//	prepare (per shard k, into cachekv.s<k>.2pc):
//	  'P' | batchID u64 | shard u32 | nops u32 |
//	      { kind u8 | seq u64 | klen u32 | vlen u32 | key | value } * nops
//	commit marker (into cachekv.2pc.commit):
//	  'C' | batchID u64
//
// The commit marker's fence is the batch's commit point. Recovery reads the
// commit log first; prepare records whose batchID carries a durable marker are
// replayed into their shard (idempotently — the recorded sequence numbers are
// reused, so a replay over an already-recovered entry resolves to the same
// version), and prepare records without a marker are in-doubt and discarded.
// Either every shard's portion becomes visible or none does.

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// shardPortion is the slice of a cross-shard batch owned by one shard.
type shardPortion struct {
	shard int
	ops   []batchOp
}

// twoPC owns the prepare/commit logs and the in-flight bookkeeping.
type twoPC struct {
	sh *Sharded

	mu       sync.Mutex
	cond     *sync.Cond
	prepare  []*wal.Writer // one per shard
	prepRgs  []hw.Region
	commitW  *wal.Writer
	commitRg hw.Region
	nextID   uint64
	inflight int // committed batches whose portions are still being applied

	// Lock-free mirrors of the log offsets, updated under t.mu after every
	// append/reset: the per-shard flow controllers read them as the WAL
	// pressure signal without contending on t.mu.
	prepBytes   []atomic.Uint64
	commitBytes atomic.Uint64
}

// newTwoPC builds the bookkeeping for n shards; open brings up the logs.
func newTwoPC(sh *Sharded, n int) *twoPC {
	t := &twoPC{sh: sh, nextID: 1, prepBytes: make([]atomic.Uint64, n)}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// logBytes returns the reading behind shard k's WAL flow signal: the bytes in
// its prepare log plus those in the commit log.
func (t *twoPC) logBytes(k int) func() uint64 {
	return func() uint64 { return t.prepBytes[k].Load() + t.commitBytes.Load() }
}

// open allocates (or, after a crash, recovers and replays) the two-phase
// logs. Shard engines must already be open: replay feeds committed portions
// back through each shard's commitOps.
func (t *twoPC) open(th *hw.Thread) error {
	m := t.sh.m
	var recovered bool
	t.commitRg, recovered = m.FindOrAlloc("cachekv.2pc.commit", twoPCLogBytes, 0)
	for k := range t.sh.shards {
		rg, _ := m.FindOrAlloc(shardPrefix(k)+".2pc", twoPCLogBytes, 0)
		t.prepRgs = append(t.prepRgs, rg)
	}

	if recovered {
		if err := t.replay(th); err != nil {
			return err
		}
	}

	// Fresh writers zero the head block, logically truncating both logs:
	// everything replayed above now lives in the shards' sub-MemTables.
	t.commitW = wal.NewWriter(m, t.commitRg, th)
	for _, rg := range t.prepRgs {
		t.prepare = append(t.prepare, wal.NewWriter(m, rg, th))
	}
	return nil
}

// replay resolves in-doubt cross-shard groups after a crash: collect durable
// commit markers, then re-apply every prepare record whose batch committed.
func (t *twoPC) replay(th *hw.Thread) error {
	sh := t.sh
	committed := make(map[uint64]bool)
	var maxID, maxSeq uint64
	cr := wal.NewReader(sh.m, t.commitRg)
	_ = cr.ReplayAll(th, func(rec []byte) error {
		if id, ok := decodeCommit(rec); ok {
			committed[id] = true
			if id > maxID {
				maxID = id
			}
		}
		return nil
	})

	replayed, indoubt := 0, 0
	var err error
	th.InPhase(hw.PhaseRecovery, func() {
		for k := range sh.shards {
			pr := wal.NewReader(sh.m, t.prepRgs[k])
			rerr := pr.ReplayAll(th, func(rec []byte) error {
				p, id, ok := decodePrepare(rec)
				if !ok || p.shard != k {
					return nil // torn tail or foreign record: durable prefix ends here
				}
				if id > maxID {
					maxID = id
				}
				if !committed[id] {
					indoubt++
					return nil // no durable marker: the batch never committed
				}
				for _, op := range p.ops {
					if op.seq > maxSeq {
						maxSeq = op.seq
					}
				}
				replayed++
				// Replay must complete regardless of overload state: no
				// admission, no deadline (the batch already committed).
				return sh.shards[k].commitOps(th, p.ops, 0)
			})
			if rerr != nil && err == nil {
				err = rerr
			}
		}
	})
	if err != nil {
		return fmt.Errorf("cachekv: two-phase replay: %w", err)
	}
	// The shared counter may lag the replayed sequence numbers.
	for {
		cur := sh.seq.Load()
		if maxSeq <= cur || sh.seq.CompareAndSwap(cur, maxSeq) {
			break
		}
	}
	t.nextID = maxID + 1
	sh.trace.Emit(th.Clock.Now(), "twopc_recovery",
		"replayed", replayed, "indoubt", indoubt, "next_id", t.nextID)
	return nil
}

const (
	twopcPrepareTag = byte('P')
	twopcCommitTag  = byte('C')
)

func encodePrepare(id uint64, p *shardPortion) []byte {
	rec := make([]byte, 0, 64)
	rec = append(rec, twopcPrepareTag)
	rec = util.PutFixed64(rec, id)
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
	return rec
}

// decodePrepare parses a prepare record; a record that is not exactly one
// prepare (a torn tail, a foreign tag, bytes left over) reports false.
func decodePrepare(rec []byte) (*shardPortion, uint64, bool) {
	c := util.NewCursor(rec)
	tag, id := c.U8(), c.U64()
	p := &shardPortion{shard: int(c.U32())}
	for i := c.Count(uint64(c.U32()), 17); i > 0; i-- { // 17: an op's fixed fields
		op := batchOp{kind: util.ValueKind(c.U8()), seq: c.U64()}
		klen, vlen := uint64(c.U32()), uint64(c.U32())
		op.key = append([]byte(nil), c.Bytes(klen)...)
		op.value = append([]byte(nil), c.Bytes(vlen)...)
		p.ops = append(p.ops, op)
	}
	if tag != twopcPrepareTag || !c.Done() {
		return nil, 0, false
	}
	return p, id, true
}

func encodeCommit(id uint64) []byte {
	rec := make([]byte, 0, 9)
	rec = append(rec, twopcCommitTag)
	return util.PutFixed64(rec, id)
}

// decodeCommit parses a commit marker, reporting false for any other record.
func decodeCommit(rec []byte) (id uint64, ok bool) {
	c := util.NewCursor(rec)
	tag, id := c.U8(), c.U64()
	return id, tag == twopcCommitTag && c.Done()
}

// needsResetLocked reports whether either log is past half capacity.
func (t *twoPC) needsResetLocked() bool {
	if t.commitW.Offset() > t.commitRg.Size/2 {
		return true
	}
	for _, w := range t.prepare {
		if w.Offset() > t.prepRgs[0].Size/2 {
			return true
		}
	}
	return false
}

// maybeResetLocked truncates both logs once no committed batch is still
// applying. Safe because every batch recorded in the logs has either fully
// applied to its shards' sub-MemTables (inflight == 0) or never got a marker.
// A crash-stop ends the wait too: an applying batch returns once its shard
// failed.
func (t *twoPC) maybeResetLocked(th *hw.Thread) {
	if !t.needsResetLocked() {
		return
	}
	for t.inflight > 0 {
		t.cond.Wait()
	}
	t.commitW.Reset(th)
	t.commitBytes.Store(t.commitW.Offset())
	for k, w := range t.prepare {
		w.Reset(th)
		t.prepBytes[k].Store(w.Offset())
	}
}

// commit runs the two-phase protocol for portions (ascending shard order):
// prepare records on every participant, one fence, then the commit marker and
// its fence — the commit point — and finally each portion is applied to its
// shard. The caller's thread does all of it: the log appends under t.mu, so
// the persistence-op stream is deterministic for a single-threaded workload
// (crashsweep relies on this), and the apply into the caller's core's slot of
// every participant, as replay does.
//
// deadlineV (0 = none) is enforced strictly BEFORE the first prepare record:
// every participant shard must admit the batch, and the deadline is
// re-checked after any log-reset wait. Once the commit marker's fence lands
// the batch is committed and the apply phase runs without a deadline — an
// in-doubt prepare is never abandoned half-committed.
func (t *twoPC) commit(th *hw.Thread, portions []*shardPortion, deadlineV int64) error {
	// Capacity pre-check against the smallest slot elasticity can produce:
	// a portion that cannot replay into a minimum-size sub-MemTable must be
	// rejected before any record is written.
	for _, p := range portions {
		if opsSlotLen(p.ops) > minSlotBytes-slotHdrSize {
			return errBatchTooLarge
		}
	}

	sh := t.sh
	// Admission on every participant shard, before any durable state: one
	// overloaded participant rejects the whole batch with nothing to undo.
	for _, p := range portions {
		if err := sh.shards[p.shard].flow.admitWrite(th, deadlineV); err != nil {
			return err
		}
	}

	t.mu.Lock()
	if sh.closed.Load() {
		t.mu.Unlock()
		return kvstore.ErrClosed
	}
	t.maybeResetLocked(th)
	if deadlineV > 0 && th.Clock.Now() >= deadlineV {
		// The reset wait (or earlier admission delays) consumed the deadline;
		// still nothing written, so the batch can fail cleanly.
		t.mu.Unlock()
		return ErrStalled
	}
	id := t.nextID
	t.nextID++
	var logErr error
	th.InPhase(hw.PhaseWAL, func() {
		for _, p := range portions {
			if _, err := t.prepare[p.shard].Append(th, encodePrepare(id, p)); err != nil {
				logErr = err
				return
			}
			t.prepBytes[p.shard].Store(t.prepare[p.shard].Offset())
		}
		// Fence 1: every participant's prepare record is durable.
		th.Clock.Advance(sh.m.Costs.Fence)
		if _, err := t.commitW.Append(th, encodeCommit(id)); err != nil {
			logErr = err
			return
		}
		t.commitBytes.Store(t.commitW.Offset())
		// Fence 2: the marker is durable — the batch's commit point.
		th.Clock.Advance(sh.m.Costs.Fence)
	})
	if logErr != nil {
		t.mu.Unlock()
		return fmt.Errorf("cachekv: two-phase log: %w", logErr)
	}
	t.inflight++
	t.mu.Unlock()

	// No deadline: the commit marker already landed, so the apply must run to
	// completion however stalled a shard is.
	var applyErr error
	for _, p := range portions {
		if err := sh.shards[p.shard].commitOps(th, p.ops, 0); err != nil && applyErr == nil {
			applyErr = err
		}
	}

	t.mu.Lock()
	t.inflight--
	t.cond.Broadcast()
	t.mu.Unlock()
	sh.crossBatches.Add(1)
	return applyErr
}
