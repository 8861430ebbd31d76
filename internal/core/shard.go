package core

// shard.go implements the sharded multi-core deployment of CacheKV: the
// keyspace is hash-partitioned across N full engine instances — each with its
// own sub-MemTable pool, flush/spill/index pipelines, ImmZone, LSM tree, and
// lock domain — behind a router that preserves the kvstore.DB surface. Two
// mechanisms ride on top of the partitioning:
//
//   - Group commit: one writer goroutine per shard coalesces concurrently
//     arriving Put/Delete/Batch requests into a single sub-MemTable append
//     committed by one CAS and made durable by one fence, amortizing the
//     persistence point across the group. Callers park until their group's
//     fence lands (the wait is attributed to the "lock" layer).
//
//   - Two-phase commit for cross-shard atomic batches: per-shard prepare
//     records plus a single commit marker in a global commit log (twopc.go),
//     so recovery can resolve in-doubt groups all-or-nothing.
//
// The LLC is way-granular, so the router reserves ONE pinned partition sized
// for the sum of all shard pools and hands it to every shard engine
// (shardEnv.part); per-shard pool regions are distinct PMem ranges inside that
// shared partition's capacity.

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/blockcache"
	"cachekv/internal/histogram"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

const (
	// groupCommitWindowNs is the virtual-time window within which
	// concurrently arriving write requests coalesce into one group; a request
	// arriving later than the group leader's arrival + window starts the next
	// group. groupCommitMaxOps caps the operations in one group.
	groupCommitWindowNs = 10_000
	groupCommitMaxOps   = 64
	// twoPCLogBytes sizes each per-shard two-phase prepare log and the global
	// commit-marker log.
	twoPCLogBytes = 256 << 10
)

// shardOptions derives one shard's engine options from o's totals (defaults
// applied, Shards >= 1). Shards stays the deployment's count: the engine
// sizes its slice of the manifest budget from it.
func shardOptions(o Options) Options {
	n := uint64(o.Shards)
	o.PoolBytes = max(o.PoolBytes/n, poolHeaderBytes+2*(64<<10))
	// Keep at least two slots per shard so one can flush while the other
	// absorbs writes.
	if most := (o.PoolBytes - poolHeaderBytes) / 2; o.SubMemTableBytes > most {
		o.SubMemTableBytes = most &^ 7
	}
	o.SubMemTableBytes = max(o.SubMemTableBytes, 64<<10)
	o.ImmZoneBytes = max(o.ImmZoneBytes/n, 2*o.PoolBytes, 1<<20)
	o.FSBytes = max(o.FSBytes/n, 8<<20)
	return o
}

// writeReq is one caller's parked write: its operations (sequence numbers
// assigned), the virtual arrival time, and the completion signal. The writer
// fills doneV/err before closing done.
type writeReq struct {
	ops   []batchOp
	bytes uint64 // rough encoded-size estimate for group byte budgeting
	at    int64  // caller's virtual clock at submission
	// deadlineV is the caller's absolute virtual-time write deadline (0 =
	// none). The group inherits the laxest member deadline; a member whose
	// own deadline expires fails alone via the degrade path.
	deadlineV int64
	doneV     int64 // group fence's virtual completion time
	err       error
	done      chan struct{}
}

func newWriteReq(ops []batchOp, at, deadlineV int64) *writeReq {
	req := &writeReq{ops: ops, at: at, deadlineV: deadlineV, done: make(chan struct{})}
	for _, op := range ops {
		req.bytes += uint64(len(op.key)+len(op.value)) + 24
	}
	return req
}

// shardWriter is one shard's group-commit loop: a dedicated goroutine (with
// its own virtual thread pinned to core shard%cores) that drains the request
// channel, coalesces adjacent requests into one commit, and answers every
// member with the group's fence time.
type shardWriter struct {
	sh  *Sharded
	eng *Engine
	id  int
	th  *hw.Thread
	ch  chan *writeReq
	ops []batchOp // a group's concatenated operations; reused group after group

	maxBytes uint64

	mu     sync.RWMutex // guards closed against concurrent submits
	closed bool
}

func (w *shardWriter) submit(req *writeReq) error {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if w.closed {
		return kvstore.ErrClosed
	}
	w.ch <- req
	return nil
}

func (w *shardWriter) stop() {
	w.mu.Lock()
	if !w.closed {
		w.closed = true
		close(w.ch)
	}
	w.mu.Unlock()
}

// loop drains requests, assembling groups bounded by op count, encoded bytes,
// and the virtual arrival window. pending carries a request that arrived past
// the current group's window into the next group.
func (w *shardWriter) loop() {
	defer w.sh.wg.Done()
	var pending *writeReq
	group := make([]*writeReq, 0, 16)
	for {
		var first *writeReq
		if pending != nil {
			first, pending = pending, nil
		} else {
			var ok bool
			first, ok = <-w.ch
			if !ok {
				return
			}
		}
		group = append(group[:0], first)
		nOps := len(first.ops)
		nBytes := first.bytes
		drained := false
	coalesce:
		for nOps < groupCommitMaxOps && nBytes < w.maxBytes {
			select {
			case r, ok := <-w.ch:
				if !ok {
					drained = true
					break coalesce
				}
				if r.at-first.at > groupCommitWindowNs {
					pending = r
					break coalesce
				}
				group = append(group, r)
				nOps += len(r.ops)
				nBytes += r.bytes
			default:
				break coalesce
			}
		}
		w.commitGroup(group)
		if drained && pending == nil {
			return
		}
	}
}

// commitGroup appends the whole group with one commitOps call (one slot
// append, one commit CAS) and one fsync-equivalent fence, then releases every
// member at the fence's virtual time. On a multi-member failure each request
// retries alone so one oversized batch cannot poison its neighbours.
func (w *shardWriter) commitGroup(group []*writeReq) {
	th := w.th
	// The group starts when the writer is free AND the last member arrived.
	start := th.Clock.Now()
	for _, r := range group {
		if r.at > start {
			start = r.at
		}
	}
	th.Clock.AdvanceTo(start)

	// The group-commit queue is the write path's last unbounded wait: under
	// sustained overload requests park behind earlier groups for longer than
	// any in-engine stall. A member whose deadline passed while it queued is
	// rejected here, before any of its ops reach the commit CAS, so it is
	// fully absent and its caller observes ErrStalled at exactly its own
	// deadline instead of an arbitrarily late ack.
	kept := group[:0]
	for _, r := range group {
		if r.deadlineV > 0 && start > r.deadlineV {
			r.doneV = r.deadlineV
			r.err = ErrStalled
			close(r.done)
			continue
		}
		kept = append(kept, r)
	}
	group = kept
	if len(group) == 0 {
		return
	}

	// The group's slot wait runs under the laxest member deadline: if any
	// member carries no deadline the group must not fail on one, and on a
	// stall the degrade path below retries members individually so only the
	// writers whose own deadlines expired observe ErrStalled — rejection
	// happens before the commit CAS, so a failed member is fully absent.
	groupDeadline := int64(-1)
	for _, r := range group {
		if r.deadlineV == 0 {
			groupDeadline = 0
			break
		}
		if r.deadlineV > groupDeadline {
			groupDeadline = r.deadlineV
		}
	}
	if groupDeadline < 0 {
		groupDeadline = 0
	}

	var err error
	if len(group) == 1 {
		err = w.eng.commitOps(th, group[0].ops, group[0].deadlineV)
	} else {
		ops := w.ops[:0]
		for _, r := range group {
			ops = append(ops, r.ops...)
		}
		err = w.eng.commitOps(th, ops, groupDeadline)
		clear(ops) // the members' keys and values are theirs again
		w.ops = ops
		if err != nil {
			// Degrade to per-request commits: a capacity error (or stall)
			// belongs to the request that overflowed or expired, not to the
			// whole group.
			for _, r := range group {
				w.commitGroup([]*writeReq{r})
			}
			return
		}
	}
	if err == nil {
		// The group's single persistence fence (the amortized fsync).
		th.InPhase(hw.PhaseWAL, func() {
			th.Clock.Advance(w.sh.m.Costs.Fence)
		})
	}
	doneV := th.Clock.Now()

	w.sh.stats.groups.Add(1)
	w.sh.stats.groupedOps.Add(int64(len(group)))
	w.sh.perShardGroups[w.id].Add(1)
	w.sh.batchHist.Record(int64(len(group)))
	for _, r := range group {
		r.doneV = doneV
		r.err = err
		w.sh.waitHist.Record(doneV - r.at)
		close(r.done)
	}
}

// shardStats aggregates router-level counters.
type shardStats struct {
	groups     atomic.Int64 // group commits executed
	groupedOps atomic.Int64 // write requests that went through group commit
	crossBatch atomic.Int64 // cross-shard two-phase batches committed
}

// Sharded is the N-shard CacheKV deployment. It implements kvstore.DB.
type Sharded struct {
	m             *hw.Machine
	writeDeadline int64 // Options.WriteStallDeadline, for Put/Delete/DeleteRange

	seq  *atomic.Uint64
	part cache.PartitionID

	shards  []*Engine
	writers []*shardWriter
	wg      sync.WaitGroup

	tpc *twoPC

	stats          shardStats
	perShardGroups []atomic.Int64
	batchHist      *histogram.H // ops per group commit
	waitHist       *histogram.H // caller park time (virtual ns)

	trace  *obs.Trace
	closed atomic.Bool
	halted atomic.Bool
}

// shardPrefix is the region-name prefix of a router's shard k. The names are
// the on-media layout: cachekv.s<k>.{pool,imm,fs,manifest,2pc} per shard and
// cachekv.2pc.commit for the router.
func shardPrefix(k int) string { return fmt.Sprintf("cachekv.s%d", k) }

// newSharded creates (or recovers) the router over max(o.Shards, 1) engines;
// Open sends Shards >= 2 here.
func newSharded(m *hw.Machine, o Options, th *hw.Thread) (*Sharded, error) {
	o = o.withDefaults()
	o.Shards = max(o.Shards, 1)
	sh := &Sharded{
		m:              m,
		writeDeadline:  o.WriteStallDeadline,
		seq:            new(atomic.Uint64),
		trace:          o.Trace,
		batchHist:      histogram.New(),
		waitHist:       histogram.New(),
		perShardGroups: make([]atomic.Int64, o.Shards),
	}
	var err error
	sh.part, err = m.Cache.Reserve(int(o.PoolBytes))
	if err != nil {
		return nil, fmt.Errorf("cachekv: pinning sharded pool: %w", err)
	}
	// The two-phase state exists before the shards do, so that each shard's
	// flow control can read its log occupancy from the start; the logs open
	// after them, because replay feeds the shards.
	sh.tpc = newTwoPC(sh, o.Shards)
	eo := shardOptions(o)
	for k := 0; k < o.Shards; k++ {
		eng, err := newEngine(m, eo, shardEnv{
			index: k, prefix: shardPrefix(k), seq: sh.seq, part: &sh.part, wal: sh.tpc.logBytes(k),
		}, th)
		if err != nil {
			sh.teardown(th)
			return nil, fmt.Errorf("cachekv: opening shard %d/%d: %w", k, o.Shards, err)
		}
		sh.shards = append(sh.shards, eng)
	}
	// Open the logs, replaying any in-doubt cross-shard groups.
	if err := sh.tpc.open(th); err != nil {
		sh.teardown(th)
		return nil, err
	}

	// Group-commit writers, one per shard, pinned round-robin over the cores.
	maxBytes := min(max(o.SubMemTableBytes/4, 4<<10), 32<<10)
	for k := 0; k < o.Shards; k++ {
		w := &shardWriter{
			sh:       sh,
			eng:      sh.shards[k],
			id:       k,
			th:       m.NewThread(k),
			ch:       make(chan *writeReq, 1024),
			maxBytes: maxBytes,
		}
		sh.writers = append(sh.writers, w)
		sh.wg.Add(1)
		go w.loop()
	}
	return sh, nil
}

// teardown closes whatever opened during a failed newSharded.
func (sh *Sharded) teardown(th *hw.Thread) {
	for _, e := range sh.shards {
		_ = e.Close(th)
	}
	sh.m.Cache.Release(sh.part)
}

// ShardOf returns the shard index key routes to: a hash partition, so every
// version of a key lives in exactly one shard and per-key max-seq resolution
// stays shard-local.
func (sh *Sharded) ShardOf(key []byte) int {
	return int(util.Hash64(key) % uint64(len(sh.shards)))
}

// Shards returns the shard count.
func (sh *Sharded) Shards() int { return len(sh.shards) }

// WriterCore reports the virtual core shard k's group-commit writer is pinned
// to (k modulo the machine's core count) — the deterministic session/shard
// core mapping documented on cachekv.DB.Session.
func (sh *Sharded) WriterCore(k int) int { return sh.writers[k].th.Core }

func (sh *Sharded) err() error {
	if sh.closed.Load() {
		return kvstore.ErrClosed
	}
	if sh.halted.Load() {
		return errEngineCrashed
	}
	return nil
}

// Name implements kvstore.DB.
func (sh *Sharded) Name() string {
	return fmt.Sprintf("CacheKV(shards=%d)", len(sh.shards))
}

// submitAndWait routes one sequenced request to shard idx's writer and parks
// the caller until the group's fence lands. The park is attributed to the lock
// layer: it is commit-ordering wait, the sharded analogue of the
// single-writer lock the paper's Figure 5(b) charges there.
func (sh *Sharded) submitAndWait(th *hw.Thread, idx int, ops []batchOp, deadlineV int64) error {
	req := newWriteReq(ops, th.Clock.Now(), deadlineV)
	if err := sh.writers[idx].submit(req); err != nil {
		return err
	}
	th.InPhase(hw.PhaseLock, func() {
		<-req.done
		th.Clock.AdvanceTo(req.doneV)
	})
	return req.err
}

// Write commits b atomically; it is the only way a mutation enters the
// router (deadlineNs as in Engine.Write). Point ops route to ShardOf(key); a
// range tombstone goes to EVERY shard, because keys hash-partition and any
// key of the span may live anywhere. A batch with one participant shard
// commits through that shard's group-commit writer exactly like the
// single-engine path (one CAS); one with several goes through the two-phase
// protocol in twopc.go, so after a crash either every shard carries its
// portion or none does.
//
// Every participant's flow controller must admit the batch before it reaches
// a writer or a log, so a rejected batch is fully absent and the group-commit
// pipeline only carries admitted work.
func (sh *Sharded) Write(th *hw.Thread, b *Batch, deadlineNs int64) error {
	ops := b.ops
	if len(ops) == 0 {
		return nil
	}
	if err := sh.err(); err != nil {
		return err
	}
	// Router lookup: one DRAM access, same charge as the engine's global
	// metadata structure.
	th.ChargeDRAM(1)
	deadlineV := absDeadline(th, deadlineNs)

	// Common case first: every op lands on one shard, nothing to partition.
	// As in Engine.Write, admission runs before a sequence number is drawn, so
	// a rejected write consumes none and a writer parked in Stop holds none.
	one := sh.ShardOf(ops[0].key)
	for i := 0; i < len(ops) && len(sh.shards) > 1; i++ {
		if ops[i].kind == util.KindRangeDel || sh.ShardOf(ops[i].key) != one {
			one = -1
			break
		}
	}
	if one >= 0 {
		fc := sh.shards[one].flow
		err := fc.admitWrite(th, deadlineV)
		if err == nil {
			assignSeqs(sh.seq, ops)
			err = sh.submitAndWait(th, one, ops, deadlineV)
		}
		return fc.countStall(err)
	}

	// Two-phase path: the prepare record carries the sequence numbers, so they
	// are drawn before tpc.commit admits on every participant.
	assignSeqs(sh.seq, ops)

	// Partition by shard, preserving op order within each; portions come out
	// in ascending shard order, the deterministic prepare/apply sequence.
	byShard := make([][]batchOp, len(sh.shards))
	for _, op := range ops {
		if op.kind == util.KindRangeDel {
			for k := range byShard {
				byShard[k] = append(byShard[k], op)
			}
		} else {
			k := sh.ShardOf(op.key)
			byShard[k] = append(byShard[k], op)
		}
	}
	portions := make([]*shardPortion, 0, len(byShard))
	for k, part := range byShard {
		if len(part) > 0 {
			portions = append(portions, &shardPortion{shard: k, ops: part})
		}
	}
	// A stalled cross-shard batch counts once, against its first participant.
	return sh.shards[portions[0].shard].flow.countStall(sh.tpc.commit(th, portions, deadlineV))
}

// Put implements kvstore.DB.
func (sh *Sharded) Put(th *hw.Thread, key, value []byte) error {
	op := [1]batchOp{{key: key, value: value, kind: util.KindValue}}
	return sh.Write(th, &Batch{ops: op[:]}, sh.writeDeadline)
}

// Delete implements kvstore.DB.
func (sh *Sharded) Delete(th *hw.Thread, key []byte) error {
	op := [1]batchOp{{key: key, kind: util.KindDelete}}
	return sh.Write(th, &Batch{ops: op[:]}, sh.writeDeadline)
}

// DeleteRange deletes every key in [start, end) across the whole keyspace
// (see Batch.DeleteRange).
func (sh *Sharded) DeleteRange(th *hw.Thread, start, end []byte) error {
	var b Batch
	b.DeleteRange(start, end)
	return sh.Write(th, &b, sh.writeDeadline)
}

// Ingest bulk-loads sorted entries, routing each to its owning shard. Each
// shard's slice installs atomically (one manifest record); the call is not
// atomic ACROSS shards — a crash between installs leaves whole per-shard
// slices present or absent, never a torn table.
func (sh *Sharded) Ingest(th *hw.Thread, entries []lsm.IngestEntry) error {
	if err := sh.err(); err != nil {
		return err
	}
	th.ChargeDRAM(1)
	// A globally ascending batch stays ascending within each shard's
	// subsequence, so per-shard validation passes whenever the input is valid.
	byShard := make([][]lsm.IngestEntry, len(sh.shards))
	for _, ent := range entries {
		k := sh.ShardOf(ent.Key)
		byShard[k] = append(byShard[k], ent)
	}
	for k, part := range byShard {
		if len(part) == 0 {
			continue
		}
		if err := sh.shards[k].Ingest(th, part); err != nil {
			return err
		}
	}
	return nil
}

// Get implements kvstore.DB: reads route directly to the owning shard on the
// caller's thread — no group, no park.
func (sh *Sharded) Get(th *hw.Thread, key []byte) ([]byte, error) {
	if err := sh.err(); err != nil {
		return nil, err
	}
	th.ChargeDRAM(1)
	return sh.shards[sh.ShardOf(key)].Get(th, key)
}

// Scan implements kvstore.DB: an ordered merge over every shard's sources at
// one shared-sequence snapshot.
func (sh *Sharded) Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	if err := sh.err(); err != nil {
		return 0, err
	}
	return scanShards(th, sh.shards, start, limit, fn)
}

// FlushAll implements kvstore.DB: flush every shard's pipeline.
func (sh *Sharded) FlushAll(th *hw.Thread) error {
	if err := sh.err(); err != nil {
		return err
	}
	for _, e := range sh.shards {
		if err := e.FlushAll(th); err != nil {
			return err
		}
	}
	return nil
}

// Halt crash-stops every shard (power failure semantics).
func (sh *Sharded) Halt() {
	sh.halted.Store(true)
	for _, e := range sh.shards {
		e.Halt()
	}
	sh.tpc.abort()
}

// Close implements kvstore.DB: drain the writers, close every shard, release
// the shared partition.
func (sh *Sharded) Close(th *hw.Thread) error {
	if sh.closed.Swap(true) {
		return nil
	}
	for _, w := range sh.writers {
		w.stop()
	}
	sh.wg.Wait()
	var first error
	for _, e := range sh.shards {
		if err := e.Close(th); err != nil && first == nil {
			first = err
		}
	}
	sh.m.Cache.Release(sh.part)
	return first
}

// FilterStats aggregates the shards' negative-filter counters.
func (sh *Sharded) FilterStats() (probes, negatives int64) {
	for _, e := range sh.shards {
		p, n := e.FilterStats()
		probes += p
		negatives += n
	}
	return probes, negatives
}

// BlockCacheStats aggregates the shards' block-cache counters.
func (sh *Sharded) BlockCacheStats() blockcache.Stats {
	var sum blockcache.Stats
	for _, e := range sh.shards {
		st := e.BlockCacheStats()
		sum.Hits += st.Hits
		sum.Misses += st.Misses
		sum.Evictions += st.Evictions
		sum.Bytes += st.Bytes
		sum.Entries += st.Entries
		sum.Admitted += st.Admitted
		sum.Direct += st.Direct
	}
	return sum
}

// RegisterObs publishes aggregate engine counters under the standard names
// (so existing dashboards keep working), per-shard labeled variants, and the
// group-commit instrumentation.
func (sh *Sharded) RegisterObs(r *obs.Registry) {
	registerEngineMetrics(r, sh.shards)
	r.Counter("engine_shards", func() int64 { return int64(len(sh.shards)) })

	r.Counter("group_commits", func() int64 { return sh.stats.groups.Load() })
	r.Counter("group_commit_ops", func() int64 { return sh.stats.groupedOps.Load() })
	r.Counter("cross_shard_batches", func() int64 { return sh.stats.crossBatch.Load() })
	r.Gauge("group_commit_batch_mean", func() float64 { return sh.batchHist.Mean() })
	r.Gauge("group_commit_batch_p99", func() float64 { return sh.batchHist.Percentile(99) })
	r.Gauge("group_commit_wait_mean_ns", func() float64 { return sh.waitHist.Mean() })
	r.Gauge("group_commit_wait_p99_ns", func() float64 { return sh.waitHist.Percentile(99) })

	for k := range sh.shards {
		k := k
		e := sh.shards[k]
		r.Counter(fmt.Sprintf("shard%d_engine_puts", k), func() int64 { return e.stats.Puts.Load() })
		r.Counter(fmt.Sprintf("shard%d_engine_gets", k), func() int64 { return e.stats.Gets.Load() })
		r.Counter(fmt.Sprintf("shard%d_engine_flushes", k), func() int64 { return e.stats.Flushes.Load() })
		r.Counter(fmt.Sprintf("shard%d_group_commits", k), func() int64 { return sh.perShardGroups[k].Load() })
		r.Gauge(fmt.Sprintf("shard%d_flow_state", k), func() float64 { return float64(e.flow.current()) })
	}
}

// FlowState reports the most severe shard's write-admission state.
func (sh *Sharded) FlowState() FlowState {
	s := FlowOK
	for _, e := range sh.shards {
		if cur := e.flow.current(); cur > s {
			s = cur
		}
	}
	return s
}

// FlowStats aggregates the shards' flow-control counters (State is the most
// severe shard's).
func (sh *Sharded) FlowStats() FlowStats {
	var t FlowStats
	for _, e := range sh.shards {
		t = t.Add(e.flow.snapshot())
	}
	return t
}

// FlowSignals sums the shards' raw pressure signals (see Engine.FlowSignals):
// total L0 files/bytes and flush-backlog bytes across the deployment.
func (sh *Sharded) FlowSignals() (l0Files int, l0Bytes int64, backlogBytes uint64) {
	for _, e := range sh.shards {
		f, b, bk := e.FlowSignals()
		l0Files += f
		l0Bytes += b
		backlogBytes += bk
	}
	return l0Files, l0Bytes, backlogBytes
}

// DebugForceFlowState pins shard k's flow state (harness hook; see
// Engine.DebugForceFlowState).
func (sh *Sharded) DebugForceFlowState(at int64, k int, s FlowState) {
	sh.shards[k].flow.force(at, s)
}

// DebugUnforceFlowState releases every shard's force pin.
func (sh *Sharded) DebugUnforceFlowState() {
	for _, e := range sh.shards {
		e.flow.forceOff()
	}
}

var _ obs.ObsRegistrar = (*Sharded)(nil)

// errBatchTooLarge rejects cross-shard portions that could never replay into
// a minimum-size sub-MemTable.
var errBatchTooLarge = errors.New("cachekv: cross-shard batch portion exceeds sub-MemTable capacity")
