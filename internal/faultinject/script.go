package faultinject

// script.go: a crash script is plain data — steps of literal mutations — and
// one apply issues any of them. A family (DESIGN.md §6 "Families") is a
// script builder; the three below regenerate their script from (seed, size),
// which is what makes a printed Schedule replayable.

import (
	"errors"
	"fmt"
	"maps"
	"slices"

	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
)

// Mutation is one put or delete of a key; a put carries its literal value, so
// the oracle can tell which step a recovered value came from.
type Mutation struct {
	Key    string
	Value  string // puts only
	Delete bool
}

// FlowPin forces one shard's flow-control state (Sharded.DebugForceFlowState).
type FlowPin struct {
	Shard int
	State core.FlowState
}

// Step is one scripted engine call, with an optional pin before it and an
// optional read after it.
type Step struct {
	// Pin, if set, is applied first. A forced state changes no persistent
	// byte, so a pin numbers no crash point. Needs the sharded router.
	Pin *FlowPin
	// Muts are committed by one call: a lone mutation with no deadline through
	// Put/Delete (any kvstore.DB), anything else as one core.Store.Write batch.
	Muts []Mutation
	// Deadline bounds the write in virtual ns; 0 = none.
	Deadline int64
	// Reject marks a write scripted to fail with core.ErrStalled. Rejection
	// happens before any append, so its keys must never surface.
	Reject bool
	// Get, if non-empty, is read last, keeping the read path exercised before
	// the crash (reads number no events: crash-point indices do not move).
	Get string
}

// Script is a deterministic sequence of steps plus the sorted universe of
// keys the oracle probes: every key a step mutates, and any others the
// builder wants proven absent.
type Script struct {
	Steps []Step
	Keys  []string
}

// newScript derives the universe from steps and extra.
func newScript(steps []Step, extra ...string) Script {
	universe := make(map[string]bool)
	for _, k := range extra {
		universe[k] = true
	}
	for _, s := range steps {
		for _, m := range s.Muts {
			universe[m.Key] = true
		}
	}
	return Script{Steps: steps, Keys: slices.Sorted(maps.Keys(universe))}
}

// apply issues one step. An error is a violation when it comes back before
// the crash point: scripts are built to succeed on a healthy engine, a
// scripted rejection included — it must fail, and with ErrStalled.
func apply(db kvstore.DB, th *hw.Thread, s *Step) error {
	if s.Pin != nil {
		sh, ok := db.(*core.Sharded)
		if !ok {
			return errors.New("engine has no per-shard flow control")
		}
		sh.DebugForceFlowState(th.Clock.Now(), s.Pin.Shard, s.Pin.State)
	}
	var err error
	switch {
	case len(s.Muts) == 0:
	case len(s.Muts) == 1 && s.Deadline == 0 && s.Muts[0].Delete:
		err = db.Delete(th, []byte(s.Muts[0].Key))
	case len(s.Muts) == 1 && s.Deadline == 0:
		err = db.Put(th, []byte(s.Muts[0].Key), []byte(s.Muts[0].Value))
	default:
		st, ok := db.(core.Store)
		if !ok {
			return errors.New("engine does not support batches or deadlines")
		}
		b := &core.Batch{}
		for _, m := range s.Muts {
			if m.Delete {
				b.Delete([]byte(m.Key))
			} else {
				b.Put([]byte(m.Key), []byte(m.Value))
			}
		}
		err = st.Write(th, b, s.Deadline)
	}
	if s.Reject {
		switch {
		case err == nil:
			return errors.New("scripted rejection was admitted")
		case !errors.Is(err, core.ErrStalled):
			return fmt.Errorf("scripted rejection failed with %v, want ErrStalled", err)
		}
		err = nil
	}
	if err == nil && s.Get != "" {
		if _, err = db.Get(th, []byte(s.Get)); errors.Is(err, kvstore.ErrNotFound) {
			err = nil
		}
	}
	return err
}

// singleKeyUniverse is deliberately small relative to the op count, so keys
// are overwritten and deleted repeatedly — the interesting schedules for
// resurrection and lost-update checking.
const singleKeyUniverse = 48

// singleKeyFamily scripts n mixed single-key operations (≈70% put, 15%
// delete, 15% get) for any engine. Total written bytes stay far below every
// engine's rotation threshold, so the persistence-operation stream is
// single-threaded and deterministic: no background flush or compaction runs
// mid-script. The same holds for the two families below.
func singleKeyFamily(seed uint64, n int) Family {
	rng := sim.NewRNG(seed)
	keys := make([]string, singleKeyUniverse)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%03d", i)
	}
	steps := make([]Step, n)
	for i := range steps {
		key := keys[rng.Intn(len(keys))]
		switch r := rng.Intn(100); {
		case r < 70:
			steps[i].Muts = []Mutation{{Key: key, Value: fmt.Sprintf("v%06d.%s", i, key)}}
		case r < 85:
			steps[i].Muts = []Mutation{{Key: key, Delete: true}}
		default:
			steps[i].Get = key
		}
	}
	return Family{Name: "single-key", Seed: seed, NumOps: n, Script: newScript(steps, keys...)}
}

// shardedEngineName is the FindEngine/report name of the harness's sharded
// router; crossShardShards is its shard count (the harness platform has 4
// cores, one writer per shard).
const (
	shardedEngineName = "cachekv-sharded"
	crossShardShards  = 4
)

// shardOfKey mirrors the router's key→shard mapping.
func shardOfKey(key string) int {
	return int(util.Hash64([]byte(key)) % crossShardShards)
}

// crossShardFamily scripts n atomic batches (≈80% put, 20% delete of the put
// batch two steps back) for the sharded router (DESIGN.md §8.3). Every batch
// spans at least two shards, so every mutation commits through the batch
// log, which is written with non-temporal stores: an acknowledged
// batch replays from PMem even under ADR, where the shards' cache-resident
// sub-MemTables are lost. Hence LogDurable.
func crossShardFamily(seed uint64, n int) Family {
	rng := sim.NewRNG(seed)
	steps := make([]Step, n)
	for i := range steps {
		if i >= 2 && rng.Intn(100) < 20 && !steps[i-2].Muts[0].Delete {
			for _, m := range steps[i-2].Muts {
				steps[i].Muts = append(steps[i].Muts, Mutation{Key: m.Key, Delete: true})
			}
		} else {
			for _, k := range crossShardKeys(i) {
				steps[i].Muts = append(steps[i].Muts, Mutation{Key: k, Value: fmt.Sprintf("b%06d.%s", i, k)})
			}
		}
		if i > 0 {
			steps[i].Get = steps[i-1].Muts[0].Key
		}
	}
	return Family{Name: "cross-shard", Engine: shardedEngineName, Seed: seed, NumOps: n,
		Script: newScript(steps), LogDurable: true}
}

// crossShardKeys picks put batch i's three keys, unique to the batch,
// re-rolling the last until the set spans at least two shards.
func crossShardKeys(i int) []string {
	keys := []string{fmt.Sprintf("bk-%04d-0", i), fmt.Sprintf("bk-%04d-1", i), fmt.Sprintf("bk-%04d-2", i)}
	for nonce := 0; shardOfKey(keys[0]) == shardOfKey(keys[1]) && shardOfKey(keys[1]) == shardOfKey(keys[2]); nonce++ {
		keys[2] = fmt.Sprintf("bk-%04d-2.%d", i, nonce)
	}
	return keys
}

// stallShard is the shard the stall script throttles. ampleDeadline is far
// above the worst token-pacing delay, so a write carrying it is never rejected
// (the stall script's acked writes, the oracle's probe write); a write to a
// stopped shard carrying hopelessDeadline always is.
const (
	stallShard       = 1
	ampleDeadline    = int64(50_000_000) // 50ms virtual
	hopelessDeadline = int64(1)
)

// stallKeyOn generates the first key of series/n that the router hashes to
// stallShard (onto: true) or anywhere else (onto: false).
func stallKeyOn(series string, n int, onto bool) string {
	for nonce := 0; ; nonce++ {
		k := fmt.Sprintf("%s-%03d.%d", series, n, nonce)
		if (shardOfKey(k) == stallShard) == onto {
			return k
		}
	}
}

// stallFamily scripts an overload episode (DESIGN.md §9.4) with perPhase
// deadline writes per phase: healthy, Slowdown on one shard (delayed
// admission), Stop (rejections, including a cross-shard batch with a stopped
// participant), then back to OK. The phases are pinned, not built from real
// backlog pressure: real pressure needs multi-megabyte flush traffic whose
// background persistence stream is not deterministic event by event.
func stallFamily(seed uint64, perPhase int) Family {
	var steps []Step
	write := func(reject bool, keys ...string) {
		s := Step{Deadline: ampleDeadline, Reject: reject}
		if reject {
			s.Deadline = hopelessDeadline
		}
		for _, k := range keys {
			s.Muts = append(s.Muts, Mutation{Key: k, Value: fmt.Sprintf("s%04d.%s", len(steps), k)})
		}
		steps = append(steps, s)
	}
	put := func(series string, n int, onStall, reject bool) {
		write(reject, stallKeyOn(series, n, onStall))
	}
	batch := func(series string, reject bool) {
		write(reject, stallKeyOn(series+"a", 0, true), stallKeyOn(series+"b", 0, false))
	}
	pin := func(s core.FlowState) {
		steps = append(steps, Step{Pin: &FlowPin{Shard: stallShard, State: s}})
	}

	for i := 0; i < perPhase; i++ {
		put("ok", i, i%2 == 0, false)
	}
	batch("okb", false)

	// Writes routed to the slowed shard are token-delayed but acked; writes
	// elsewhere are untouched.
	pin(core.FlowSlowdown)
	for i := 0; i < perPhase; i++ {
		put("slow", i, true, false)
		put("side", i, false, false)
	}

	// Tiny-deadline writes to the stopped shard and a batch with it as a
	// participant are rejected; other shards keep admitting.
	pin(core.FlowStop)
	for i := 0; i < perPhase; i++ {
		put("rej", i, true, true)
		put("live", i, false, false)
	}
	batch("rejb", true)

	pin(core.FlowOK)
	for i := 0; i < perPhase; i++ {
		put("post", i, i%2 == 0, false)
	}
	batch("postb", false)
	return Family{Name: "stall", Engine: shardedEngineName, Seed: seed, NumOps: perPhase, Script: newScript(steps)}
}
