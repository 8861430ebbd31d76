package lsm

import (
	"bytes"
	"fmt"

	"cachekv/internal/hw"
	"cachekv/internal/util"
)

// IngestEntry is one key/value pair of a bulk-load batch.
type IngestEntry struct {
	Key   []byte
	Value []byte
}

// ingestIter adapts a sorted IngestEntry slice to the Iterator interface,
// stamping every entry with the batch's single sequence number.
type ingestIter struct {
	entries []IngestEntry
	seq     uint64
	i       int
	ikey    util.InternalKey
}

func (it *ingestIter) Valid() bool { return it.i < len(it.entries) }
func (it *ingestIter) SeekToFirst() {
	it.i = 0
	it.fill()
}
func (it *ingestIter) Seek(ikey util.InternalKey) {
	ukey := ikey.UserKey()
	it.i = 0
	for it.i < len(it.entries) && bytes.Compare(it.entries[it.i].Key, ukey) < 0 {
		it.i++
	}
	it.fill()
}
func (it *ingestIter) Next() {
	it.i++
	it.fill()
}
func (it *ingestIter) fill() {
	if it.Valid() {
		it.ikey = util.MakeInternalKey(it.ikey, it.entries[it.i].Key, it.seq, util.KindValue)
	}
}
func (it *ingestIter) Key() util.InternalKey { return it.ikey }
func (it *ingestIter) Value() []byte         { return it.entries[it.i].Value }
func (it *ingestIter) Err() error            { return nil }
func (it *ingestIter) Close()                {}

// Ingest bulk-loads entries (strictly ascending unique user keys) as external
// SSTables, installed all-or-nothing: the tables are written first, then one
// CRC'd manifest record adds every file. A crash before that append leaves
// the manifest pointing at exactly the old file set — the written tables are
// orphans that the next Open sweeps — and a crash after it at exactly the
// new one.
//
// Every entry carries sequence number seq (drawn by the caller from the
// engine's counter), making the batch the newest version of each of its keys.
// Placement preserves the per-key level-recency invariant: the batch lands in
// L0 unless its key range overlaps nothing at any level, in which case it
// goes to L1 and skips the L0→L1 merge entirely.
func (t *Tree) Ingest(th *hw.Thread, entries []IngestEntry, seq uint64) error {
	if len(entries) == 0 {
		return nil
	}
	for i := 1; i < len(entries); i++ {
		if bytes.Compare(entries[i-1].Key, entries[i].Key) >= 0 {
			return fmt.Errorf("lsm: ingest keys not strictly ascending at %d (%q >= %q)",
				i, entries[i-1].Key, entries[i].Key)
		}
	}
	it := &ingestIter{entries: entries, seq: seq}
	it.SeekToFirst()
	metas, err := t.writeTables(th, it, false, false, nil, t.opts.TableFileSize)
	if err != nil {
		return err
	}
	lo := entries[0].Key
	hi := entries[len(entries)-1].Key

	t.mu.Lock()
	defer t.mu.Unlock()
	level := 0
	if t.opts.SingleLevel {
		level = 1
	} else {
		clear := true
		for lvl := range t.levels {
			if len(t.overlappingRange(lvl, lo, hi)) > 0 {
				clear = false
				break
			}
		}
		if clear && t.opts.MaxLevels > 1 {
			level = 1
		}
	}
	e := &versionEdit{}
	for _, mmeta := range metas {
		e.added = append(e.added, addedFile{level: level, meta: mmeta})
	}
	if seq > t.lastSeq {
		e.lastSeq = seq
	}
	if err := t.logAndApply(th, e); err != nil {
		t.deleteTables(th, metas)
		return err
	}
	t.stats.Ingests++
	t.stats.TablesIngested += int64(len(metas))
	return nil
}
