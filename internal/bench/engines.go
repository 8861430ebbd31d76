package bench

import (
	"fmt"
	"strings"

	"cachekv/internal/baseline"
	"cachekv/internal/baseline/novelsm"
	"cachekv/internal/baseline/slmdb"
	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// EngineKind enumerates every system the paper evaluates.
type EngineKind int

// The nine systems of the evaluation section.
const (
	CacheKV EngineKind = iota
	PCSM
	PCSMLIU
	NoveLSM
	NoveLSMWoFlush
	NoveLSMCache
	SLMDB
	SLMDBWoFlush
	SLMDBCache
)

// AllEngines is every comparison system, in the paper's display order.
var AllEngines = []EngineKind{
	NoveLSM, NoveLSMWoFlush, NoveLSMCache,
	SLMDB, SLMDBWoFlush, SLMDBCache,
	PCSM, PCSMLIU, CacheKV,
}

// BaselineEngines is the six non-CacheKV systems (Figures 4 and 5).
var BaselineEngines = []EngineKind{
	NoveLSM, NoveLSMWoFlush, NoveLSMCache,
	SLMDB, SLMDBWoFlush, SLMDBCache,
}

// String returns the engine's display name.
func (k EngineKind) String() string {
	switch k {
	case CacheKV:
		return "CacheKV"
	case PCSM:
		return "PCSM"
	case PCSMLIU:
		return "PCSM+LIU"
	case NoveLSM:
		return "NoveLSM"
	case NoveLSMWoFlush:
		return "NoveLSM-w/o-flush"
	case NoveLSMCache:
		return "NoveLSM-cache"
	case SLMDB:
		return "SLM-DB"
	case SLMDBWoFlush:
		return "SLM-DB-w/o-flush"
	case SLMDBCache:
		return "SLM-DB-cache"
	default:
		return fmt.Sprintf("engine(%d)", int(k))
	}
}

// ParseEngine resolves a command-line engine name: the display name of one of
// AllEngines, in any letter case.
func ParseEngine(name string) (EngineKind, error) {
	valid := make([]string, len(AllEngines))
	for i, k := range AllEngines {
		valid[i] = strings.ToLower(k.String())
		if strings.EqualFold(name, valid[i]) {
			return k, nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (valid: %s)", name, strings.Join(valid, ", "))
}

// EngineConfig carries the knobs experiments vary.
type EngineConfig struct {
	PMemBytes        uint64 // machine PMem capacity
	FSBytes          uint64 // SSTable file-layer capacity
	PoolBytes        uint64 // CacheKV sub-MemTable pool (Exp#7)
	SubMemTableBytes uint64 // CacheKV sub-MemTable size (Exp#6)
	FlushThreads     int    // CacheKV background flush threads (Exp#5)

	// Cores overrides the simulated core count (default: the testbed's 24).
	// Thread-scaling experiments past 24 threads raise it.
	Cores int
	// Shards opens the CacheKV-family engines as a sharded router with this
	// many engine shards (0 or 1: the classic single engine).
	Shards int
	// CompactionWorkers sizes the CacheKV-family engines' background
	// compaction scheduler (per shard when sharded); 0 = default (1).
	CompactionWorkers int

	// DataBytes is the expected working-set size of the experiment. It
	// scales the baselines' memtables the way the paper configures them:
	// NoveLSM's PMem MemTable (4 GiB on the testbed) absorbs the entire
	// workload, as does SLM-DB-cache's (4 GiB); vanilla SLM-DB's 64 MiB
	// MemTable holds ~8% of a 10M-op run, kept proportional here.
	DataBytes uint64

	// Obs enables per-layer hardware attribution on the machine (NewMachine
	// calls EnableObs before any thread exists). Attribution never advances
	// virtual clocks, so results are bit-identical either way.
	Obs bool
	// Trace, when non-nil, receives engine lifecycle events.
	Trace *obs.Trace
	// ProfileStepNs > 0 enables the continuous virtual-time sampling profiler
	// with that period (NewMachine calls EnableProfiler before any thread
	// exists). Like Obs, sampling adds zero virtual time.
	ProfileStepNs int64
}

// DefaultEngineConfig sizes the platform for experiment-scale runs.
func DefaultEngineConfig() EngineConfig {
	return EngineConfig{
		PMemBytes: 4 << 30,
		FSBytes:   1 << 30,
	}
}

// NewMachine builds the simulated testbed platform (36 MB eADR LLC, 24
// cores) with the configured PMem capacity.
func (c EngineConfig) NewMachine() *hw.Machine {
	cfg := hw.DefaultConfig()
	if c.PMemBytes > 0 {
		cfg.PMemBytes = c.PMemBytes
	}
	if c.Cores > 0 {
		cfg.Cores = c.Cores
	}
	m := hw.NewMachine(cfg)
	if c.Obs {
		m.EnableObs()
	}
	if c.ProfileStepNs > 0 {
		m.EnableProfiler(c.ProfileStepNs)
	}
	return m
}

// Open builds engine kind on machine m.
func (c EngineConfig) Open(kind EngineKind, m *hw.Machine, th *hw.Thread) (kvstore.DB, error) {
	fsBytes := c.FSBytes
	if fsBytes == 0 {
		fsBytes = 1 << 30
	}
	if pm := c.PMemBytes; pm > 0 && fsBytes > pm/2 {
		fsBytes = pm / 2 // leave room for pool/logs/manifest regions
	}
	data := c.DataBytes
	if data == 0 {
		data = 32 << 20
	}
	switch kind {
	case CacheKV, PCSM, PCSMLIU:
		opts := core.DefaultOptions()
		opts.FSBytes = fsBytes
		// Scale the ImmZone to the workload so scaled-down runs still reach
		// the steady state where spills (and the index thread) set the pace,
		// as the paper's 10M-op runs do.
		if z := data / 3; z < opts.ImmZoneBytes {
			if z < 4<<20 {
				z = 4 << 20
			}
			opts.ImmZoneBytes = z
		}
		if c.PoolBytes > 0 {
			opts.PoolBytes = c.PoolBytes
		}
		if c.SubMemTableBytes > 0 {
			opts.SubMemTableBytes = c.SubMemTableBytes
		}
		if c.FlushThreads > 0 {
			opts.FlushThreads = c.FlushThreads
		}
		opts.CompactionWorkers = c.CompactionWorkers
		switch kind {
		case PCSM:
			opts.LazyIndex = false
			opts.SkiplistCompaction = false
		case PCSMLIU:
			opts.LazyIndex = true
			opts.SkiplistCompaction = false
		}
		opts.Trace = c.Trace
		opts.Shards = c.Shards
		return core.Open(m, opts, th)
	case NoveLSM, NoveLSMWoFlush, NoveLSMCache:
		opts := novelsm.DefaultOptions()
		opts.FSBytes = fsBytes
		// The paper's 4 GiB PMem MemTable never fills during a run; size it
		// to absorb the workload (rotations still happen via the DRAM table).
		if pm := int64(data + data/2); pm > opts.PMemMemBytes {
			opts.PMemMemBytes = pm
		}
		opts.Variant = map[EngineKind]baseline.Variant{
			NoveLSM:        baseline.Vanilla,
			NoveLSMWoFlush: baseline.WithoutFlush,
			NoveLSMCache:   baseline.CacheSegments,
		}[kind]
		opts.Trace = c.Trace
		return novelsm.Open(m, opts, th)
	case SLMDB, SLMDBWoFlush, SLMDBCache:
		opts := slmdb.DefaultOptions()
		opts.FSBytes = fsBytes
		if kind == SLMDBCache {
			// The paper enlarges SLM-DB-cache's MemTable to 4 GiB for a fair
			// comparison with NoveLSM-cache: it absorbs the whole workload.
			if pm := int64(data + data/2); pm > opts.MemBytes {
				opts.MemBytes = pm
			}
		} else if pm := int64(data / 12); pm > opts.MemBytes {
			// Vanilla SLM-DB's 64 MiB table holds ~8%% of a 10M-op run.
			opts.MemBytes = pm
		}
		opts.Variant = map[EngineKind]baseline.Variant{
			SLMDB:        baseline.Vanilla,
			SLMDBWoFlush: baseline.WithoutFlush,
			SLMDBCache:   baseline.CacheSegments,
		}[kind]
		opts.Trace = c.Trace
		return slmdb.Open(m, opts, th)
	default:
		return nil, fmt.Errorf("bench: unknown engine kind %d", kind)
	}
}
