package bench

import (
	"cachekv/internal/engines"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// EngineConfig carries the knobs experiments vary; the zero value is the
// testbed platform with every engine at its defaults.
type EngineConfig struct {
	PMemBytes        uint64 // machine PMem capacity (0 = the testbed's 4 GiB)
	PoolBytes        uint64 // CacheKV sub-MemTable pool (Exp#7)
	SubMemTableBytes uint64 // CacheKV sub-MemTable size (Exp#6)
	FlushThreads     int    // CacheKV background flush threads (Exp#5)

	// Shards opens the CacheKV-family engines as a sharded router with this
	// many engine shards (0 or 1: the classic single engine).
	Shards int

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
}

// NewMachine builds the simulated testbed platform (36 MB eADR LLC, 24
// cores) with the configured PMem capacity.
func (c EngineConfig) NewMachine() *hw.Machine {
	cfg := hw.DefaultConfig()
	if c.PMemBytes > 0 {
		cfg.PMemBytes = c.PMemBytes
	}
	m := hw.NewMachine(cfg)
	if c.Obs {
		m.EnableObs()
	}
	return m
}

// Open builds engine kind on machine m, sized for the configured experiment.
func (c EngineConfig) Open(kind engines.Kind, m *hw.Machine, th *hw.Thread) (kvstore.DB, error) {
	// SSTable file-layer capacity; half the PMem stays for pool/logs/manifest.
	fsBytes := min(1<<30, m.PMem.Capacity()/2)
	data := c.DataBytes
	if data == 0 {
		data = 32 << 20
	}
	s := engines.NewSizing(fsBytes, c.Trace)
	// Scale the ImmZone to the workload so scaled-down runs still reach the
	// steady state where spills (and the index thread) set the pace, as the
	// paper's 10M-op runs do.
	if z := data / 3; z < s.Core.ImmZoneBytes {
		s.Core.ImmZoneBytes = max(z, 4<<20)
	}
	if c.PoolBytes > 0 {
		s.Core.PoolBytes = c.PoolBytes
	}
	if c.SubMemTableBytes > 0 {
		s.Core.SubMemTableBytes = c.SubMemTableBytes
	}
	if c.FlushThreads > 0 {
		s.Core.FlushThreads = c.FlushThreads
	}
	s.Core.Shards = c.Shards
	// A MemTable the paper configures at 4 GiB never fills during a run: size
	// it to absorb the workload. That is NoveLSM's PMem MemTable (rotations
	// still happen via the DRAM table) and SLM-DB-cache's, enlarged for a fair
	// comparison with NoveLSM-cache; vanilla SLM-DB's 64 MiB table holds ~8%
	// of a 10M-op run.
	absorb, slmMem := int64(data+data/2), int64(data/12)
	if kind == engines.SLMDBCache {
		slmMem = absorb
	}
	s.NoveLSM.MemBytes = max(s.NoveLSM.MemBytes, absorb)
	s.SLMDB.MemBytes = max(s.SLMDB.MemBytes, slmMem)
	return engines.Open(kind, m, th, s)
}
