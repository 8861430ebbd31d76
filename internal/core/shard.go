package core

// shard.go implements the sharded multi-core deployment of CacheKV: the
// keyspace is hash-partitioned across N full engine instances — each with its
// own sub-MemTable pool, flush/spill/index pipelines, ImmZone, LSM tree, and
// lock domain — behind a router that preserves the kvstore.DB surface. The
// router starts no thread of its own: a write whose ops all land on one shard
// runs that shard's Engine.Write on the caller's thread, into the caller's
// core's sub-MemTable, exactly as on the single engine. A batch spanning
// shards runs the two-phase protocol (twopc.go): per-shard prepare records
// plus a single commit marker in a global commit log, so recovery can resolve
// in-doubt batches all-or-nothing.
//
// The LLC is way-granular, so the router reserves ONE pinned partition sized
// for the sum of all shard pools and hands it to every shard engine
// (shardEnv.part); per-shard pool regions are distinct PMem ranges inside that
// shared partition's capacity.

import (
	"errors"
	"fmt"
	"sync/atomic"

	"cachekv/internal/blockcache"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
	"cachekv/internal/util"
)

// twoPCLogBytes sizes each per-shard two-phase prepare log and the global
// commit-marker log.
const twoPCLogBytes = 256 << 10

// shardOptions derives one shard's engine options from o's totals (defaults
// applied, Shards >= 1). Shards stays the deployment's count: the engine
// sizes its slice of the manifest budget from it.
func shardOptions(o Options) Options {
	n := uint64(o.Shards)
	o.PoolBytes = max(o.PoolBytes/n, poolHeaderBytes+2*minSlotBytes)
	// Keep at least two slots per shard so one can flush while the other
	// absorbs writes.
	if most := (o.PoolBytes - poolHeaderBytes) / 2; o.SubMemTableBytes > most {
		o.SubMemTableBytes = most &^ 7
	}
	o.SubMemTableBytes = max(o.SubMemTableBytes, minSlotBytes)
	o.ImmZoneBytes = max(o.ImmZoneBytes/n, 2*o.PoolBytes, 1<<20)
	o.FSBytes = max(o.FSBytes/n, 8<<20)
	return o
}

// Sharded is the N-shard CacheKV deployment. It implements kvstore.DB.
type Sharded struct {
	m             *hw.Machine
	writeDeadline int64 // Options.WriteStallDeadline, for Put/Delete/DeleteRange

	seq  *atomic.Uint64
	part cache.PartitionID

	shards []*Engine
	tpc    *twoPC

	crossBatches atomic.Int64 // cross-shard two-phase batches committed

	trace  *obs.Trace
	closed atomic.Bool
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
		m:             m,
		writeDeadline: o.WriteStallDeadline,
		seq:           new(atomic.Uint64),
		trace:         o.Trace,
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

func (sh *Sharded) err() error {
	if sh.closed.Load() {
		return kvstore.ErrClosed
	}
	return nil
}

// Name implements kvstore.DB.
func (sh *Sharded) Name() string {
	return fmt.Sprintf("CacheKV(shards=%d)", len(sh.shards))
}

// Write commits b atomically; it is the only way a mutation enters the
// router (deadlineNs as in Engine.Write). Point ops route to ShardOf(key); a
// range tombstone goes to EVERY shard, because keys hash-partition and any
// key of the span may live anywhere. A batch with one participant shard is
// that shard's Engine.Write on the caller's thread (admission, sequence
// numbers, one CAS on the caller's core's slot); one with several goes
// through the two-phase protocol in twopc.go, so after a crash either every
// shard carries its portion or none does.
//
// Every participant's flow controller must admit the batch before it reaches
// a sub-MemTable or a log, so a rejected batch is fully absent.
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

	// Common case first: every op lands on one shard, nothing to partition.
	one := sh.ShardOf(ops[0].key)
	for i := 0; i < len(ops) && len(sh.shards) > 1; i++ {
		if ops[i].kind == util.KindRangeDel || sh.ShardOf(ops[i].key) != one {
			one = -1
			break
		}
	}
	if one >= 0 {
		return sh.shards[one].Write(th, b, deadlineNs)
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
	err := sh.tpc.commit(th, portions, absDeadline(th, deadlineNs))
	return sh.shards[portions[0].shard].flow.countStall(err)
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

// Close implements kvstore.DB: close every shard, release the shared
// partition.
func (sh *Sharded) Close(th *hw.Thread) error {
	if sh.closed.Swap(true) {
		return nil
	}
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
// router's cross-shard batch count.
func (sh *Sharded) RegisterObs(r *obs.Registry) {
	registerMetrics(r, sh, sh.shards)
	r.Counter("engine_shards", func() int64 { return int64(len(sh.shards)) })
	r.Counter("cross_shard_batches", func() int64 { return sh.crossBatches.Load() })

	for k := range sh.shards {
		k := k
		e := sh.shards[k]
		r.Counter(fmt.Sprintf("shard%d_engine_puts", k), func() int64 { return e.stats.Puts.Load() })
		r.Counter(fmt.Sprintf("shard%d_engine_gets", k), func() int64 { return e.stats.Gets.Load() })
		r.Counter(fmt.Sprintf("shard%d_engine_flushes", k), func() int64 { return e.stats.Flushes.Load() })
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

// errBatchTooLarge rejects cross-shard portions that could never replay into
// a minimum-size sub-MemTable.
var errBatchTooLarge = errors.New("cachekv: cross-shard batch portion exceeds sub-MemTable capacity")
