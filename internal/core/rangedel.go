package core

import (
	"bytes"
	"sync"

	"cachekv/internal/hw"
	"cachekv/internal/lsm"
	"cachekv/internal/util"
)

// rangeTombList is the engine's DRAM mirror of range tombstones that may
// still be resident in the memory component. commitOps adds to it right after
// the commit CAS; pruneRangeTombs removes an entry only once the tree's own
// metadata carries it (sub-MemTable slots flush out of sequence order, so
// maxSpilledSeq alone cannot prove a tombstone left the memory component).
type rangeTombList struct {
	mu    sync.Mutex
	tombs []lsm.RangeDel
}

func (l *rangeTombList) add(rd lsm.RangeDel) {
	l.mu.Lock()
	l.tombs = append(l.tombs, rd)
	l.mu.Unlock()
}

// coverSeq returns the highest sequence among tombstones visible at snap
// whose span contains ukey, or 0. An entry is hidden iff its sequence is
// strictly below the returned cover.
func (l *rangeTombList) coverSeq(ukey []byte, snap uint64) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var cover uint64
	for _, rd := range l.tombs {
		if rd.Seq <= snap && rd.Seq > cover &&
			bytes.Compare(rd.Start, ukey) <= 0 && bytes.Compare(ukey, rd.End) < 0 {
			cover = rd.Seq
		}
	}
	return cover
}

// appendVisible appends to dst every tombstone with sequence <= snap.
func (l *rangeTombList) appendVisible(dst []lsm.RangeDel, snap uint64) []lsm.RangeDel {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, rd := range l.tombs {
		if rd.Seq <= snap {
			dst = append(dst, rd)
		}
	}
	return dst
}

type tombKey struct {
	start, end string
	seq        uint64
}

// pruneTo drops every tombstone that appears in spilled (the tree's current
// metadata). Membership is the only sound retirement criterion: the tree
// never drops range tombstones, so once one shows up there it can no longer
// be lost, and every engine-visible copy outside the list is redundant.
func (l *rangeTombList) pruneTo(spilled []lsm.RangeDel) {
	if len(spilled) == 0 {
		return
	}
	in := make(map[tombKey]bool, len(spilled))
	for _, rd := range spilled {
		in[tombKey{string(rd.Start), string(rd.End), rd.Seq}] = true
	}
	l.mu.Lock()
	kept := l.tombs[:0]
	for _, rd := range l.tombs {
		if !in[tombKey{string(rd.Start), string(rd.End), rd.Seq}] {
			kept = append(kept, rd)
		}
	}
	l.tombs = kept
	l.mu.Unlock()
}

// pruneRangeTombs retires DRAM tombstone mirrors the tree now owns; called
// after a spill installs.
func (e *Engine) pruneRangeTombs() {
	e.rangeTombs.pruneTo(e.tree.RangeTombstones(nil, util.MaxSequence))
}

// appendRangeTombs appends to dst every range tombstone visible at snap, from
// the memory component and then the tree. An unpruned DRAM mirror may
// duplicate a tree entry; scans take the max cover, so duplicates are
// harmless.
func (e *Engine) appendRangeTombs(dst []lsm.RangeDel, snap uint64) []lsm.RangeDel {
	return e.tree.RangeTombstones(e.rangeTombs.appendVisible(dst, snap), snap)
}

// Ingest bulk-loads entries (strictly ascending unique user keys) as external
// SSTables installed atomically in the tree, bypassing the memory component.
// The whole batch commits at one sequence number drawn from the engine's
// counter, making it the newest version of each of its keys.
func (e *Engine) Ingest(th *hw.Thread, entries []lsm.IngestEntry) error {
	if err := e.err(); err != nil {
		return err
	}
	if len(entries) == 0 {
		return nil
	}
	seq := e.seq.Add(1)
	var ierr error
	th.InPhase(hw.PhaseSST, func() {
		ierr = e.tree.Ingest(th, entries, seq)
	})
	if ierr != nil {
		return ierr
	}
	// The batch lives only in the tree yet is the freshest version of its
	// keys; lift maxSpilledSeq so reads never skip the tree based on a
	// memory-component candidate older than the ingest.
	raiseTo(&e.maxSpilledSeq, seq)
	e.trace.Emit(th.Clock.Now(), "ingest", "shard", e.env.index,
		"entries", len(entries), "seq", seq)
	e.flow.recompute(th.Clock.Now(), "ingest")
	e.compact(th.Clock.Now())
	e.stats.Ingests.Add(1)
	return nil
}
