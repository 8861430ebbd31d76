package faultinject

// crossshard.go is the cross-shard family: the script and oracle for the
// sharded router's atomic batches (DESIGN.md §8.3). The workload is a sequence of
// batches, each spanning at least two shards, so every mutation flows through
// the two-phase commit protocol: prepare records on every participant shard,
// one fence, a commit marker, a second fence (the commit point), then the
// portions drain through the per-shard group-commit writers.
//
// The oracle is all-or-nothing: after a crash at any event and recovery,
// every batch is either fully visible on all of its shards or fully invisible
// — a half-applied two-phase group is a violation. Because the two-phase logs
// are written with non-temporal stores, a batch whose commit marker landed is
// replayable from PMem even under ADR, where the shards' cache-resident
// sub-MemTables are lost; acked batches are therefore held durable in BOTH
// persistence domains (the bit-flip fault mode alone voids durability and
// atomicity, since corruption may eat one shard's prepare record while its
// peers replay).

import (
	"errors"
	"fmt"
	"sort"

	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// shardedEngineName is the FindEngine/report name of the harness's sharded
// router; crossShardShards is its shard count (the harness platform has 4
// cores, one writer per shard).
const (
	shardedEngineName = "cachekv-sharded"
	crossShardShards  = 4
)

// batchKeysPerBatch is the span of one atomic batch. Three unique keys force
// ≥2 participant shards (the generator re-rolls the last key if the hash
// lands all three on one shard).
const batchKeysPerBatch = 3

// BatchOp is one scripted cross-shard batch: a put batch writes its Keys
// atomically, a delete batch tombstones the keys of the put batch Target.
type BatchOp struct {
	Keys   []string
	Delete bool
	Target int // put batch whose keys a delete batch removes (== own index for puts)
}

// BatchWorkload is a deterministic scripted batch sequence, fully derived
// from its seed, length, and shard count.
type BatchWorkload struct {
	Seed    uint64
	Shards  int
	Batches []BatchOp
}

// NewBatchWorkload generates n batches (≈80% put, 20% delete-of-an-earlier-
// put) from seed. Keys are unique per put batch, so the all-or-nothing check
// is exact: a key is admissible only in its own batch's canonical state.
// Total written bytes stay far below every seal/rotation threshold, keeping
// the persistence-operation stream single-threaded and deterministic.
func NewBatchWorkload(seed uint64, n, shards int) *BatchWorkload {
	rng := sim.NewRNG(seed)
	wl := &BatchWorkload{Seed: seed, Shards: shards}
	for i := 0; i < n; i++ {
		if i >= 2 && rng.Intn(100) < 20 && !wl.Batches[i-2].Delete {
			wl.Batches = append(wl.Batches, BatchOp{
				Keys: wl.Batches[i-2].Keys, Delete: true, Target: i - 2,
			})
			continue
		}
		wl.Batches = append(wl.Batches, BatchOp{Keys: crossShardKeys(i, shards), Target: i})
	}
	return wl
}

// crossShardKeys picks batch i's key set, re-rolling the last key until the
// set spans at least two shards under the router's own hash.
func crossShardKeys(i, shards int) []string {
	keys := make([]string, batchKeysPerBatch)
	for j := range keys {
		keys[j] = fmt.Sprintf("bk-%04d-%d", i, j)
	}
	if shards < 2 {
		return keys
	}
	spans := func() bool {
		first := shardOfKey(keys[0], shards)
		for _, k := range keys[1:] {
			if shardOfKey(k, shards) != first {
				return true
			}
		}
		return false
	}
	for nonce := 0; !spans(); nonce++ {
		keys[len(keys)-1] = fmt.Sprintf("bk-%04d-%d.%d", i, batchKeysPerBatch-1, nonce)
	}
	return keys
}

// shardOfKey mirrors the router's key→shard mapping.
func shardOfKey(key string, shards int) int {
	return int(util.Hash64([]byte(key)) % uint64(shards))
}

// BatchValue is the canonical value put batch i writes for key.
func BatchValue(i int, key string) string {
	return fmt.Sprintf("b%06d.%s", i, key)
}

// Keys returns the sorted universe of keys the workload can touch plus ghost
// keys that must never become readable.
func (w *BatchWorkload) Keys() []string {
	var keys []string
	for _, b := range w.Batches {
		if !b.Delete {
			keys = append(keys, b.Keys...)
		}
	}
	keys = append(keys, "zz-ghost-0", "zz-ghost-1")
	sort.Strings(keys)
	return keys
}

// applyBatch issues workload batch i, then probes the previous batch's first
// key to keep the read path exercised before the crash (reads never number
// events, so the probe does not perturb crash-point indices).
func applyBatch(db core.Store, th *hw.Thread, wl *BatchWorkload, i int) error {
	b := &core.Batch{}
	op := wl.Batches[i]
	if op.Delete {
		for _, k := range op.Keys {
			b.Delete([]byte(k))
		}
	} else {
		for _, k := range op.Keys {
			b.Put([]byte(k), []byte(BatchValue(i, k)))
		}
	}
	if err := db.Write(th, b, 0); err != nil {
		return err
	}
	if i > 0 {
		if _, err := db.Get(th, []byte(wl.Batches[i-1].Keys[0])); err != nil && !errors.Is(err, kvstore.ErrNotFound) {
			return err
		}
	}
	return nil
}

// crossShardFamily scripts n cross-shard batches for the sharded router.
func crossShardFamily(seed uint64, n int) Family {
	wl := NewBatchWorkload(seed, n, crossShardShards)
	return Family{
		Name: "cross-shard", Engine: shardedEngineName, Seed: seed, NumOps: n, Steps: len(wl.Batches),
		Apply: func(db kvstore.DB, th *hw.Thread, i int) error {
			st, ok := db.(core.Store)
			if !ok {
				return errors.New("engine does not support atomic batches")
			}
			return applyBatch(st, th, wl, i)
		},
		// Committed cross-shard batches replay from the NT-written two-phase
		// logs in both domains, so durability AND atomicity are demanded
		// everywhere except under bit-flip corruption (which may eat one
		// shard's prepare record or a marker — refusing or losing whole
		// groups is honest there, fabricating or tearing values is not).
		Check: func(db kvstore.DB, th *hw.Thread, inflight int, _ cache.Domain, _ bool, fault Fault) ([]string, map[string]string) {
			strict := fault != FaultFlip
			return checkBatchOracle(db, th, wl, inflight, strict, strict)
		},
	}
}

// checkBatchOracle probes every key of every put batch and demands, per
// batch, a uniform group outcome from the admissible set.
//
// inflight is the index of the batch the crash interrupted; batches
// 0..inflight-1 are acknowledged, batch inflight (if any) may have committed,
// later batches were never issued.
//
// With durable=true an acknowledged put batch must be fully present unless an
// acknowledged delete batch removed it (an in-flight delete leaves both
// outcomes admissible); with atomic=true a batch whose keys are part-present
// part-absent is a violation regardless of durability. Values must always be
// the canonical BatchValue of their own batch, ghost keys must stay absent,
// and Scan must agree with Get.
func checkBatchOracle(db kvstore.DB, th *hw.Thread, wl *BatchWorkload, inflight int, durable, atomic bool) (violations []string, recovered map[string]string) {
	issued := func(b int) bool { return b <= inflight && b < len(wl.Batches) }
	acked := func(b int) bool { return b < inflight }

	// deleter[p] is the index of the delete batch targeting put batch p.
	deleter := make(map[int]int)
	for i, b := range wl.Batches {
		if b.Delete {
			deleter[b.Target] = i
		}
	}

	got := make(map[string]keyState)
	probe := func(key string) (keyState, bool) {
		v, err := db.Get(th, []byte(key))
		switch {
		case err == nil:
			s := keyState{present: true, value: string(v)}
			got[key] = s
			return s, true
		case errors.Is(err, kvstore.ErrNotFound):
			got[key] = keyState{}
			return keyState{}, true
		default:
			violations = append(violations, fmt.Sprintf("get %q: unexpected error %v", key, err))
			return keyState{}, false
		}
	}

	for p, b := range wl.Batches {
		if b.Delete {
			continue
		}
		present, absent := 0, 0
		for _, key := range b.Keys {
			s, ok := probe(key)
			if !ok {
				continue
			}
			if !s.present {
				absent++
				continue
			}
			present++
			if want := BatchValue(p, key); s.value != want {
				violations = append(violations, fmt.Sprintf(
					"key %q: recovered %q, canonical value is %q", key, s.value, want))
			}
		}

		// Group admissibility.
		allowedPresent, allowedAbsent := true, true
		switch {
		case !issued(p):
			allowedPresent = false
		case durable:
			d, hasDel := deleter[p]
			if acked(p) && (!hasDel || !issued(d)) {
				allowedAbsent = false
			}
			if hasDel && acked(d) {
				allowedPresent = false
			}
		}
		switch {
		case present > 0 && absent > 0:
			if atomic {
				violations = append(violations, fmt.Sprintf(
					"batch %d half-applied: %d of %d keys present (inflight batch %d)",
					p, present, len(b.Keys), inflight))
			} else if !issued(p) {
				violations = append(violations, fmt.Sprintf(
					"batch %d never issued but %d keys present", p, present))
			}
		case present > 0:
			if !allowedPresent {
				violations = append(violations, fmt.Sprintf(
					"batch %d fully present but inadmissible (issued=%v, deleter acked; inflight batch %d)",
					p, issued(p), inflight))
			}
		default:
			if !allowedAbsent {
				violations = append(violations, fmt.Sprintf(
					"batch %d lost: acknowledged and never deleted, but absent after recovery (inflight batch %d)",
					p, inflight))
			}
		}
	}
	for _, ghost := range []string{"zz-ghost-0", "zz-ghost-1"} {
		if s, ok := probe(ghost); ok && s.present {
			violations = append(violations, fmt.Sprintf("ghost key %q readable: %q", ghost, s.value))
		}
	}

	// Full scan: universe membership, ascending order, and Get agreement.
	inUniverse := make(map[string]bool)
	for _, k := range wl.Keys() {
		inUniverse[k] = true
	}
	scanned := make(map[string]string)
	var prev string
	orderOK := true
	_, err := db.Scan(th, nil, 0, func(k, v []byte) bool {
		key := string(k)
		if prev != "" && key <= prev {
			orderOK = false
		}
		prev = key
		scanned[key] = string(v)
		return true
	})
	if err != nil {
		violations = append(violations, fmt.Sprintf("scan: unexpected error %v", err))
	}
	if !orderOK {
		violations = append(violations, "scan: keys not in strictly ascending order")
	}
	for k, v := range scanned {
		if !inUniverse[k] {
			violations = append(violations, fmt.Sprintf("scan: fabricated key %q = %q", k, v))
			continue
		}
		if g := got[k]; !g.present || g.value != v {
			violations = append(violations, fmt.Sprintf(
				"scan/get disagree on %q: scan %q, get %v", k, v, g))
		}
	}
	for k, g := range got {
		if g.present {
			if _, ok := scanned[k]; !ok {
				violations = append(violations, fmt.Sprintf(
					"key %q visible to get (%v) but missing from scan", k, g))
			}
		}
	}

	recovered = make(map[string]string)
	for k, g := range got {
		if g.present {
			recovered[k] = g.value
		}
	}
	sort.Strings(violations)
	return violations, recovered
}
