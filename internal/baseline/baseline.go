// Package baseline is the one store behind the two comparison systems the
// paper evaluates against — NoveLSM (ATC'18) and SLM-DB (FAST'19) — and
// their eADR-adapted variants ("-w/o-flush" and "-cache") that the paper
// itself constructs in Sections II-C and IV-A. Both are LevelDB over PMem:
// MemTables whose entries append in place to one of two ping-pong PMem logs,
// one shared MemTable lock, a one-worker flush into one lsm.Tree. Store is
// that design; an engine adds only what the paper says differs, as a Tier
// (where its MemTables live and how each is made durable) and an Index (how
// a memory miss finds its SSTable).
package baseline

import (
	"fmt"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/lsm"
	"cachekv/internal/obs"
)

// Variant selects the flush discipline of a baseline engine.
type Variant int

// The three variants of each baseline.
const (
	// Vanilla uses store + clflush/clwb, the ADR-era discipline both systems
	// shipped with.
	Vanilla Variant = iota
	// WithoutFlush drops the flush instructions, as one would naively do on
	// an eADR platform ("NoveLSM-w/o-flush", "SLM-DB-w/o-flush").
	WithoutFlush
	// CacheSegments pins memtable segments in the LLC via CAT and flushes
	// each segment wholesale when it fills ("NoveLSM-cache", "SLM-DB-cache").
	CacheSegments
)

// Suffix returns the variant's display suffix ("" / "-w/o-flush" / "-cache").
func (v Variant) Suffix() string {
	switch v {
	case WithoutFlush:
		return "-w/o-flush"
	case CacheSegments:
		return "-cache"
	default:
		return ""
	}
}

// reservePartition pins segBytes of LLC for a -cache variant and returns the
// partition (DefaultPartition for the other variants).
func reservePartition(m *hw.Machine, v Variant, segBytes uint64) (cache.PartitionID, error) {
	if v != CacheSegments {
		return cache.DefaultPartition, nil
	}
	part, err := m.Cache.Reserve(int(segBytes))
	if err != nil {
		return 0, fmt.Errorf("baseline: pinning cache segment: %w", err)
	}
	return part, nil
}

// Options size a baseline store. Sizes are scaled down from the paper's
// configuration so that experiment-sized workloads exercise every rotation.
type Options struct {
	Variant       Variant
	MemBytes      int64  // PMem MemTable size (paper: 64 MiB; 4 GiB for NoveLSM)
	SegmentBytes  uint64 // pinned cache segment for the -cache variant (12 MiB)
	NodeBytes     uint64 // PMem index-node area (its random dirty lines)
	FSBytes       uint64
	ManifestBytes uint64
	LSM           lsm.Options

	// Trace, when non-nil, receives lifecycle events (rotation, flush
	// start/end, recovery). Every emit site is nil-safe.
	Trace *obs.Trace
}

// DefaultOptions returns the scaled evaluation sizes with a PMem MemTable of
// memBytes.
func DefaultOptions(memBytes int64) Options {
	return Options{
		MemBytes:      memBytes,
		SegmentBytes:  12 << 20,
		NodeBytes:     64 << 20,
		FSBytes:       256 << 20,
		ManifestBytes: 4 << 20,
	}
}
