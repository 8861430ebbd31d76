package faultinject

// stallsched.go is the stall family: the script and oracle for crashes that
// land while the engine is in flow-control Slowdown or Stop (DESIGN.md §9.4). The
// workload scripts the stall phases through the engine's forced-state hook
// (DebugForceFlowState) instead of building real backlog pressure — real
// pressure needs multi-megabyte flush traffic whose background persistence
// stream is not deterministic event-by-event, while a forced state changes no
// persistent bytes at all, so the crash-point space stays exact.
//
// The oracle adds the overload clauses to the usual ones: a write the engine
// REJECTED with ErrStalled must be absent after every crash point (rejection
// happens before any append — nothing to replay, nothing to leak), a write
// the engine ACKED after a Slowdown token delay is durable exactly like any
// other acked write (eADR), a cross-shard batch rejected because one
// participant was stopped must be fully absent on all shards, and the
// recovered engine must come back in the OK state with writes admitted.

import (
	"errors"
	"fmt"
	"sort"

	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
)

// stallShard is the shard the workload throttles; stallDeadline is the
// generous per-write deadline (far above the worst token-pacing delay, so a
// scripted-acked write can never stall), stallTinyDeadline the hopeless one
// rejected writes carry.
const (
	stallShard        = 1
	stallDeadline     = int64(50_000_000) // 50ms virtual
	stallTinyDeadline = int64(1)
)

type stallOpKind int

const (
	stallPut stallOpKind = iota
	stallBatch
	stallForce
)

// stallOp is one scripted step: a deadline write (single or batch) or a
// forced flow-state change on one shard.
type stallOp struct {
	Kind stallOpKind
	Keys []string // one key for stallPut, the batch keys for stallBatch
	// Reject marks writes scripted to fail with ErrStalled (issued with the
	// tiny deadline against a stopped shard); their keys must never surface.
	Reject bool
	Shard  int
	State  core.FlowState
}

// StallWorkload is a deterministic scripted overload episode: healthy writes,
// a Slowdown phase (delayed admission), a Stop phase (rejections, including a
// cross-shard batch with a stopped participant), then recovery to OK.
type StallWorkload struct {
	Seed   uint64
	Shards int
	Ops    []stallOp
}

// StallValue is the canonical value op i writes for key.
func StallValue(i int, key string) string { return fmt.Sprintf("s%04d.%s", i, key) }

// stallKeyOn generates the nonce-th key of series that the router hashes to
// shard want (onto: true) or anywhere else (onto: false).
func stallKeyOn(series string, n, want, shards int, onto bool) string {
	for nonce := 0; ; nonce++ {
		k := fmt.Sprintf("%s-%03d.%d", series, n, nonce)
		if (shardOfKey(k, shards) == want) == onto {
			return k
		}
	}
}

// NewStallWorkload scripts the overload episode. The write volume stays far
// below every seal/flush threshold so no background persistence traffic
// perturbs the event stream.
func NewStallWorkload(seed uint64, perPhase, shards int) *StallWorkload {
	wl := &StallWorkload{Seed: seed, Shards: shards}
	put := func(series string, n int, onStall bool, reject bool) {
		k := stallKeyOn(series, n, stallShard, shards, onStall)
		wl.Ops = append(wl.Ops, stallOp{Kind: stallPut, Keys: []string{k}, Reject: reject})
	}
	force := func(s core.FlowState) {
		wl.Ops = append(wl.Ops, stallOp{Kind: stallForce, Shard: stallShard, State: s})
	}
	batch := func(series string, n int, withStall bool, reject bool) {
		a := stallKeyOn(series+"a", n, stallShard, shards, withStall)
		b := stallKeyOn(series+"b", n, stallShard, shards, false)
		wl.Ops = append(wl.Ops, stallOp{Kind: stallBatch, Keys: []string{a, b}, Reject: reject})
	}

	// Healthy phase: acked singles and a cross-shard batch.
	for i := 0; i < perPhase; i++ {
		put("ok", i, i%2 == 0, false)
	}
	batch("okb", 0, true, false)

	// Slowdown on one shard: writes routed there are token-delayed but acked;
	// writes elsewhere are untouched.
	force(core.FlowSlowdown)
	for i := 0; i < perPhase; i++ {
		put("slow", i, true, false)
		put("side", i, false, false)
	}

	// Stop on that shard: tiny-deadline writes and a cross-shard batch with
	// the stopped participant are rejected; other shards keep admitting.
	force(core.FlowStop)
	for i := 0; i < perPhase; i++ {
		put("rej", i, true, true)
		put("live", i, false, false)
	}
	batch("rejb", 0, true, true)

	// Back to OK: everything admits again, including cross-shard batches
	// through the throttled shard.
	force(core.FlowOK)
	for i := 0; i < perPhase; i++ {
		put("post", i, i%2 == 0, false)
	}
	batch("postb", 0, true, false)
	return wl
}

// Keys returns the sorted universe of keys the workload can touch plus ghost
// keys that must never become readable.
func (w *StallWorkload) Keys() []string {
	var keys []string
	for _, op := range w.Ops {
		keys = append(keys, op.Keys...)
	}
	keys = append(keys, "zz-ghost-0", "zz-ghost-1")
	sort.Strings(keys)
	return keys
}

// applyStallOp issues op i. Scripted rejections must come back ErrStalled —
// an admitted "rejected" write (or a rejected "acked" one) is reported as a
// violation by the caller through the returned error. The forced-state hook
// is per shard, so the script needs the sharded router itself.
func applyStallOp(db *core.Sharded, th *hw.Thread, wl *StallWorkload, i int) error {
	op := wl.Ops[i]
	switch op.Kind {
	case stallForce:
		db.DebugForceFlowState(th.Clock.Now(), op.Shard, op.State)
		return nil
	default: // stallPut (one key) or stallBatch: the same Write either way
		b := &core.Batch{}
		for _, k := range op.Keys {
			b.Put([]byte(k), []byte(StallValue(i, k)))
		}
		deadline := stallDeadline
		if op.Reject {
			deadline = stallTinyDeadline
		}
		err := db.Write(th, b, deadline)
		if op.Reject {
			if err == nil {
				return fmt.Errorf("op %d: scripted rejection was admitted", i)
			}
			if !errors.Is(err, core.ErrStalled) {
				return fmt.Errorf("op %d: scripted rejection failed with %v, want ErrStalled", i, err)
			}
			return nil
		}
		return err
	}
}

// stallFamily scripts the overload episode with perPhase writes per phase.
func stallFamily(seed uint64, perPhase int) Family {
	wl := NewStallWorkload(seed, perPhase, crossShardShards)
	return Family{
		Name: "stall", Engine: shardedEngineName, Seed: seed, NumOps: perPhase, Steps: len(wl.Ops),
		Apply: func(db kvstore.DB, th *hw.Thread, i int) error {
			sh, ok := db.(*core.Sharded)
			if !ok {
				return errors.New("engine has no per-shard flow control")
			}
			return applyStallOp(sh, th, wl, i)
		},
		// Single-key durability follows the platform contract (durableADR
		// under ADR, always under eADR) and a bit flip voids it, as in the
		// single-key family; a flip may also eat one shard's half of a
		// committed batch, as in the cross-shard family. The overload clauses
		// — rejected writes absent, canonical values, nothing unissued
		// visible, recovered state OK — hold under every domain and fault.
		Check: func(db kvstore.DB, th *hw.Thread, inflight int, domain cache.Domain, durableADR bool, fault Fault) ([]string, map[string]string) {
			intact := fault != FaultFlip
			return checkStallOracle(db, th, wl, inflight, (domain == cache.EADR || durableADR) && intact, intact)
		},
	}
}

// checkStallOracle probes every scripted key. inflight is the op index the
// crash interrupted (len(Ops) if the workload completed); ops before it are
// acknowledged (or confirmed-rejected), the inflight op is indeterminate,
// later ops never ran. durable demands acknowledged writes present; atomic
// demands batches all-or-nothing.
func checkStallOracle(db kvstore.DB, th *hw.Thread, wl *StallWorkload, inflight int, durable, atomic bool) (violations []string, recovered map[string]string) {
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

	for i, op := range wl.Ops {
		if op.Kind == stallForce {
			continue
		}
		issued := i <= inflight
		acked := i < inflight
		present, absent := 0, 0
		for _, key := range op.Keys {
			s, ok := probe(key)
			if !ok {
				continue
			}
			if !s.present {
				absent++
				continue
			}
			present++
			if op.Reject {
				violations = append(violations, fmt.Sprintf(
					"rejected op %d leaked: key %q readable as %q (inflight op %d)",
					i, key, s.value, inflight))
				continue
			}
			if want := StallValue(i, key); s.value != want {
				violations = append(violations, fmt.Sprintf(
					"key %q: recovered %q, canonical value is %q", key, s.value, want))
			}
		}
		if op.Reject {
			continue // absence already demanded per key above
		}
		switch {
		case present > 0 && absent > 0 && atomic:
			// Only batches can tear; a stallPut has one key.
			violations = append(violations, fmt.Sprintf(
				"batch op %d half-applied: %d of %d keys present (inflight op %d)",
				i, present, len(op.Keys), inflight))
		case present > 0 && !issued:
			violations = append(violations, fmt.Sprintf(
				"op %d never issued but its keys are present (inflight op %d)", i, inflight))
		case absent == len(op.Keys) && durable && acked:
			violations = append(violations, fmt.Sprintf(
				"op %d lost: acknowledged before the crash but absent after recovery (inflight op %d)",
				i, inflight))
		}
	}
	for _, ghost := range []string{"zz-ghost-0", "zz-ghost-1"} {
		if s, ok := probe(ghost); ok && s.present {
			violations = append(violations, fmt.Sprintf("ghost key %q readable: %q", ghost, s.value))
		}
	}

	// The recovered engine must come back admitting writes in the OK state.
	if fdb, ok := db.(core.Store); ok {
		if st := fdb.FlowState(); st != core.FlowOK {
			violations = append(violations, fmt.Sprintf(
				"recovered engine stuck in flow state %v", st))
		}
		probe := &core.Batch{}
		probe.Put([]byte("zz-probe-post"), []byte("p"))
		if err := fdb.Write(th, probe, stallDeadline); err != nil {
			violations = append(violations, fmt.Sprintf(
				"recovered engine rejected a healthy write: %v", err))
		}
	}

	// Full scan: universe membership and Get agreement.
	inUniverse := map[string]bool{"zz-probe-post": true}
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
		if k == "zz-probe-post" {
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
