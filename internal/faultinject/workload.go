package faultinject

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
	"cachekv/internal/kvstore"
)

// OpKind is a workload operation kind.
type OpKind int

// Workload operation kinds. Only puts and deletes mutate durable state;
// gets ride along to exercise the read path before the crash.
const (
	OpPut OpKind = iota
	OpDelete
	OpGet
)

// Op is one scripted workload operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value string // puts only
}

// Workload is a deterministic scripted op sequence, fully derived from its
// seed and length. Values encode the index of the put that wrote them
// ("v%06d.<key>"), so the oracle can tell exactly which write a recovered
// value came from.
type Workload struct {
	Seed uint64
	Ops  []Op
}

// workloadKeys is the key-space size. It is deliberately small relative to
// the op count so keys are overwritten and deleted repeatedly — the
// interesting schedules for resurrection and lost-update checking.
const workloadKeys = 48

// NewWorkload generates n mixed operations (≈70% put, 15% delete, 15% get)
// from seed. Total written bytes stay far below every engine's rotation
// threshold, so the persistence-operation stream is single-threaded and
// deterministic: no background flush or compaction runs mid-workload.
func NewWorkload(seed uint64, n int) *Workload {
	rng := sim.NewRNG(seed)
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("key-%03d", rng.Intn(workloadKeys))
		switch r := rng.Intn(100); {
		case r < 70:
			ops = append(ops, Op{Kind: OpPut, Key: key, Value: PutValue(i, key)})
		case r < 85:
			ops = append(ops, Op{Kind: OpDelete, Key: key})
		default:
			ops = append(ops, Op{Kind: OpGet, Key: key})
		}
	}
	return &Workload{Seed: seed, Ops: ops}
}

// PutValue is the canonical value written by the put at op index i.
func PutValue(i int, key string) string {
	return fmt.Sprintf("v%06d.%s", i, key)
}

// ParsePutIndex recovers the op index encoded in a stored value, or -1 if
// the value is not in the canonical form (which the oracle reports as
// fabricated data).
func ParsePutIndex(v string) int {
	if len(v) < 8 || v[0] != 'v' || !strings.Contains(v, ".") {
		return -1
	}
	i, err := strconv.Atoi(v[1:7])
	if err != nil {
		return -1
	}
	return i
}

// Keys returns the sorted universe of keys the workload can touch,
// including keys never actually written (the oracle probes them to catch
// fabricated entries).
func (w *Workload) Keys() []string {
	keys := make([]string, 0, workloadKeys+2)
	for i := 0; i < workloadKeys; i++ {
		keys = append(keys, fmt.Sprintf("key-%03d", i))
	}
	// Ghost keys: never written by any workload; must never be readable.
	keys = append(keys, "zz-ghost-0", "zz-ghost-1")
	return keys
}

// singleKeyFamily is the original family: n mixed single-key operations on
// any kvstore.DB, judged per key by checkOracle.
func singleKeyFamily(seed uint64, n int) Family {
	wl := NewWorkload(seed, n)
	return Family{
		Name: "single-key", Seed: seed, NumOps: n, Steps: len(wl.Ops),
		Apply: func(db kvstore.DB, th *hw.Thread, i int) error {
			switch op := wl.Ops[i]; op.Kind {
			case OpPut:
				return db.Put(th, []byte(op.Key), []byte(op.Value))
			case OpDelete:
				return db.Delete(th, []byte(op.Key))
			default:
				_, err := db.Get(th, []byte(op.Key))
				if errors.Is(err, kvstore.ErrNotFound) {
					err = nil
				}
				return err
			}
		},
		// Durability is demanded when the domain or the engine contract
		// guarantees it; a bit flip voids durability (corruption may eat a
		// legitimately persisted suffix) but never validity.
		Check: func(db kvstore.DB, th *hw.Thread, inflight int, domain cache.Domain, durableADR bool, fault Fault) ([]string, map[string]string) {
			durable := (domain == cache.EADR || durableADR) && fault != FaultFlip
			return checkOracle(db, th, wl, inflight, durable)
		},
	}
}
