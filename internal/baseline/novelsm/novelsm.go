// Package novelsm reimplements NoveLSM (Kannan et al., USENIX ATC'18) as the
// paper describes and configures it: an LSM-tree KV store that keeps a small
// MemTable in DRAM (write-ahead logged) and a large mutable MemTable in PMem
// with in-place durability (no log). All writes serialize on a single shared
// MemTable mutex and update the skiplist index synchronously — the two
// software costs the paper's Observation 2 charges against it.
//
// Everything but the DRAM tier is the shared baseline.Store. The -w/o-flush
// and -cache variants (Sections II-C, IV-A) are selected via
// baseline.Variant: the former drops flush instructions on eADR, the latter
// stages the PMem MemTable through 12 MiB pinned cache segments flushed
// wholesale with clflush when full.
package novelsm

import (
	"cachekv/internal/baseline"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// Options configure a NoveLSM instance: the shared baseline sizes, whose
// MemBytes is the PMem MemTable (16 MiB scaled; paper 4 GiB), plus the DRAM
// tier's.
type Options struct {
	baseline.Options
	DRAMMemBytes int64 // DRAM MemTable size (4 MiB scaled; paper 64 MiB)
	WALBytes     uint64
}

// DefaultOptions returns the scaled evaluation configuration.
func DefaultOptions() Options {
	return Options{Options: baseline.DefaultOptions(16 << 20), DRAMMemBytes: 4 << 20, WALBytes: 16 << 20}
}

// Open creates (or recovers) a NoveLSM instance on machine m.
func Open(m *hw.Machine, opts Options, th *hw.Thread) (*baseline.Store, error) {
	// The WAL heads NoveLSM's PMem map; the store's regions follow it.
	walRegion, _ := m.FindOrAlloc("novelsm.wal", opts.WALBytes, 4096)
	t := &dramTier{m: m, walRegion: walRegion, limit: opts.DRAMMemBytes, walMode: wal.ModeFlush}
	if opts.Variant == baseline.WithoutFlush {
		// -w/o-flush leaves log bytes to cache eviction (the Ob1 failure
		// mode); vanilla and -cache keep ordered flushes.
		t.walMode = wal.ModeCached
	}
	return baseline.Open(m, opts.Options, baseline.Engine{
		Name: "NoveLSM", Prefix: "novelsm", Seed: 7, Tier: t, Index: baseline.Levels{},
	}, th)
}

// dramTier puts a DRAM MemTable in front of the store's PMem ones. Writes go
// to it, logged to the WAL first; while a sealed one drains to L0 the PMem
// MemTable absorbs them ("PMem MemTable absorbs KV pairs once the DRAM
// MemTable is full"), and once that flush completes writes rotate back to
// DRAM, sending the PMem overflow down the flush pipeline too.
type dramTier struct {
	m         *hw.Machine
	walRegion hw.Region
	walMode   wal.Mode
	limit     int64

	wal     *wal.Writer
	pending int // sealed DRAM tables not yet flushed or dropped
}

// First is a DRAM table: the store starts in DRAM.
func (t *dramTier) First(s *baseline.Store, _ *hw.Thread) baseline.Table {
	return s.DRAMTable(t.limit)
}

// Recover replays the WAL, the DRAM MemTable's contents, after the PMem
// entry logs, then opens it for writing.
func (t *dramTier) Recover(th *hw.Thread, insert func(util.InternalKey, []byte)) {
	_ = wal.NewReader(t.m, t.walRegion).ReplayAll(th, func(rec []byte) error {
		e, err := kvstore.ViewEntry(rec)
		if err != nil {
			return err
		}
		insert(e.InternalKey(nil), e.Value)
		return nil
	})
	t.wal = wal.NewWriterMode(t.m, t.walRegion, th, t.walMode)
}

// Rotate sends a non-empty PMem table down once no DRAM table is draining.
func (t *dramTier) Rotate(active baseline.Table) bool {
	return active.Log >= 0 && t.pending == 0 && active.MT.Len() > 0
}

// Log appends a write to the WAL first: DRAM MemTables are volatile.
func (t *dramTier) Log(th *hw.Thread, active baseline.Table, ikey util.InternalKey, value []byte) error {
	if active.Log >= 0 {
		return nil
	}
	rec := kvstore.EncodeEntry(nil, ikey, value)
	var err error
	th.InPhase(hw.PhaseWAL, func() {
		_, err = t.wal.Append(th, rec)
	})
	return err
}

// Next alternates the tiers. A sealed DRAM table's WAL is superseded once the
// table is queued (the flush makes it durable in SSTables; NoveLSM truncates
// the log at rotation), but only once every earlier DRAM table is durable in
// SSTables: otherwise a crash would lose it.
func (t *dramTier) Next(s *baseline.Store, th *hw.Thread, sealed baseline.Table) baseline.Table {
	if sealed.Log < 0 {
		next := s.PMemTable(th)
		t.pending++
		return next
	}
	for t.pending > 0 {
		s.Wait()
	}
	t.wal.Reset(th) // keeps the discipline fixed at open
	return s.DRAMTable(t.limit)
}

// Released drops a flushed DRAM table's hold on the WAL.
func (t *dramTier) Released(sealed baseline.Table) {
	if sealed.Log < 0 {
		t.pending--
	}
}
