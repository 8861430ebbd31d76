package faultinject

import (
	"cachekv/internal/baseline"
	"cachekv/internal/baseline/novelsm"
	"cachekv/internal/baseline/slmdb"
	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// EngineSpec describes one engine variant the harness can explore.
type EngineSpec struct {
	Name string
	// DurableADR is the engine's durability contract on the ADR platform:
	// true means an acknowledged write must survive a power failure even
	// with volatile CPU caches (the engine flushes or streams every write
	// before acking). Engines that keep acked data in cache lines — the
	// whole point of the eADR designs — get only the validity clause of the
	// oracle under ADR; under eADR every engine is held to full durability.
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

// coreOptions is the scaled CacheKV configuration (pool and zones shrunk to
// fit the harness LLC; behavioral knobs untouched).
func coreOptions() core.Options {
	o := core.DefaultOptions()
	o.PoolBytes = 2 << 20
	o.SubMemTableBytes = 256 << 10
	o.ImmZoneBytes = 8 << 20
	o.FSBytes = 32 << 20
	return o
}

func cacheKVSpec(name string, lazyIndex, listCompaction bool) EngineSpec {
	return EngineSpec{
		Name: name,
		// CacheKV's memory component lives in pinned cache lines; under ADR
		// those are volatile by design and acked writes may vanish (the
		// paper's point, pinned by TestADRCrashLosesUnflushedWrites).
		DurableADR: false,
		Open: func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error) {
			o := coreOptions()
			o.LazyIndex = lazyIndex
			o.SkiplistCompaction = listCompaction
			o.Trace = tr
			return core.Open(m, o, th)
		},
	}
}

func novelsmSpec(name string, v baseline.Variant) EngineSpec {
	return EngineSpec{
		Name: name,
		// Vanilla NoveLSM WAL-logs DRAM-tier writes with clwb+fence and its
		// PMem tier appends with in-place flushes: durable on ADR. The
		// -w/o-flush variant drops the flushes, the -cache variant stages
		// the PMem tier in pinned cache segments; neither contracts ADR
		// durability.
		DurableADR: v == baseline.Vanilla,
		Open: func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error) {
			return novelsm.Open(m, novelsmOptions(v, tr), th)
		},
	}
}

// novelsmOptions is the scaled NoveLSM harness configuration.
func novelsmOptions(v baseline.Variant, tr *obs.Trace) novelsm.Options {
	o := novelsm.DefaultOptions()
	o.Variant = v
	o.DRAMMemBytes = 1 << 20
	o.PMemMemBytes = 4 << 20
	o.SegmentBytes = 1 << 20
	o.WALBytes = 8 << 20
	o.NodeBytes = 16 << 20
	o.FSBytes = 32 << 20
	o.Trace = tr
	return o
}

func slmdbSpec(name string, v baseline.Variant) EngineSpec {
	return EngineSpec{
		Name:       name,
		DurableADR: v == baseline.Vanilla,
		Open: func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error) {
			return slmdb.Open(m, slmdbOptions(v, tr), th)
		},
	}
}

// slmdbOptions is the scaled SLM-DB harness configuration.
func slmdbOptions(v baseline.Variant, tr *obs.Trace) slmdb.Options {
	o := slmdb.DefaultOptions()
	o.Variant = v
	o.MemBytes = 4 << 20
	o.SegmentBytes = 1 << 20
	o.NodeBytes = 16 << 20
	o.FSBytes = 32 << 20
	o.Trace = tr
	return o
}

// shardedSpec is the sharded CacheKV router on the harness platform: the
// coreOptions budget split across shards (the router divides the pool, zones,
// and file-layer capacity itself). Kept out of AllEngines so the classic
// per-engine sweeps and differential tests keep their historical scope;
// FindEngine resolves it by name for the families scripted against it.
func shardedSpec() EngineSpec {
	return EngineSpec{
		Name: shardedEngineName,
		// Single-key writes live in pinned cache lines exactly like the plain
		// engine's, so the ADR contract is unchanged. (Cross-shard batches are
		// stronger — their two-phase log is written with non-temporal stores —
		// which the cross-shard family declares as LogDurable.)
		DurableADR: false,
		Open: func(m *hw.Machine, th *hw.Thread, tr *obs.Trace) (kvstore.DB, error) {
			o := coreOptions()
			o.Shards = crossShardShards
			o.Trace = tr
			return core.Open(m, o, th)
		},
	}
}

// AllEngines returns a spec for every engine variant the repository ships:
// CacheKV and its two ablations, and both baselines with their eADR
// variants.
func AllEngines() []EngineSpec {
	return []EngineSpec{
		cacheKVSpec("cachekv", true, true),
		cacheKVSpec("pcsm", false, false),
		cacheKVSpec("pcsm+liu", true, false),
		novelsmSpec("novelsm", baseline.Vanilla),
		novelsmSpec("novelsm-w/o-flush", baseline.WithoutFlush),
		novelsmSpec("novelsm-cache", baseline.CacheSegments),
		slmdbSpec("slm-db", baseline.Vanilla),
		slmdbSpec("slm-db-w/o-flush", baseline.WithoutFlush),
		slmdbSpec("slm-db-cache", baseline.CacheSegments),
	}
}

// FindEngine returns the spec named name. Beyond AllEngines it resolves
// "cachekv-sharded", the cross-shard harness router.
func FindEngine(name string) (EngineSpec, bool) {
	for _, s := range AllEngines() {
		if s.Name == name {
			return s, true
		}
	}
	if name == shardedEngineName {
		return shardedSpec(), true
	}
	return EngineSpec{}, false
}
