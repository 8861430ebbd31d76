package faultinject

import (
	"strings"

	"cachekv/internal/engines"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// EngineSpec describes one engine variant the harness can explore.
type EngineSpec struct {
	Name string
	// DurableADR is the engine's durability contract on the ADR platform
	// (engines.Kind.DurableADR). Engines without it get only the validity
	// clause of the oracle under ADR; under eADR every engine is held to full
	// durability.
	DurableADR bool
	// Open opens the engine on m, recovering whatever m's PMem holds. tr
	// (nil = none) is wired in as the engine's lifecycle-event trace, so
	// replayed schedules interleave engine events (flushes, rotations,
	// recovery) with the harness's crash annotations.
	Open func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error)
}

// MachineConfig is the scaled-down platform the harness runs schedules on:
// an 8 MiB 12-way LLC over 256 MiB of PMem with 4 cores. Small enough that
// thousands of schedule runs stay cheap, large enough that no harness
// workload comes near a rotation or eviction threshold (which would add
// nondeterministic background persistence traffic to the event stream).
func MachineConfig(domain cache.Domain) hw.Config {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 256 << 20
	cfg.Cores = 4
	cfg.Cache = cache.Config{SizeBytes: 8 << 20, Ways: 12, Domain: domain}
	return cfg
}

// NewMachine builds a fresh harness platform in the given persistence domain.
func NewMachine(domain cache.Domain) *hw.Machine {
	return hw.NewMachine(MachineConfig(domain))
}

// harnessSizing is every engine family scaled to the harness platform (pool,
// tables, zones and logs shrunk to fit its LLC and PMem; behavioural knobs
// untouched). shards > 1 opens the CacheKV family as the sharded router, which
// divides the pool, zones and file-layer capacity itself.
func harnessSizing(tr *obs.Trace, shards int) engines.Sizing {
	s := engines.NewSizing(32<<20, tr)
	s.Core.PoolBytes = 2 << 20
	s.Core.SubMemTableBytes = 256 << 10
	s.Core.ImmZoneBytes = 8 << 20
	s.Core.Shards = shards
	s.NoveLSM.DRAMMemBytes = 1 << 20
	s.NoveLSM.PMemMemBytes = 4 << 20
	s.NoveLSM.SegmentBytes = 1 << 20
	s.NoveLSM.WALBytes = 8 << 20
	s.NoveLSM.NodeBytes = 16 << 20
	s.SLMDB.MemBytes = 4 << 20
	s.SLMDB.SegmentBytes = 1 << 20
	s.SLMDB.NodeBytes = 16 << 20
	return s
}

// spec is catalogue engine k on the harness platform, named by its lower-cased
// display name (the sharded router by shardedEngineName).
func spec(k engines.Kind, shards int) EngineSpec {
	name := strings.ToLower(k.String())
	if shards > 1 {
		name = shardedEngineName
	}
	return EngineSpec{
		Name:       name,
		DurableADR: k.DurableADR(),
		Open: func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error) {
			return engines.Open(k, m, th, harnessSizing(tr, shards))
		},
	}
}

// AllEngines returns a spec for every engine of the catalogue.
func AllEngines() []EngineSpec {
	var all []EngineSpec
	for _, k := range engines.All() {
		all = append(all, spec(k, 0))
	}
	return all
}

// FindEngine returns the spec named name. Beyond AllEngines it resolves
// "cachekv-sharded", the cross-shard harness router, kept out of AllEngines so
// the per-engine sweeps and differential tests keep their scope. Its single-key
// writes live in pinned cache lines like the plain engine's, so the ADR contract
// is unchanged (cross-shard batches are stronger — a two-phase log written with
// non-temporal stores — which the cross-shard family declares as LogDurable).
func FindEngine(name string) (EngineSpec, bool) {
	if name == shardedEngineName {
		return spec(engines.CacheKV, crossShardShards), true
	}
	k, err := engines.Parse(name)
	if err != nil {
		return EngineSpec{}, false
	}
	return spec(k, 0), true
}
