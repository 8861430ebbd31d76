// Package kvstore defines the engine-neutral surface every KV store in the
// repository implements — CacheKV and both baselines plus their variants —
// along with the shared memtable helper the baseline engines build on. The
// benchmark harness drives engines exclusively through this interface, which
// is what makes the paper's head-to-head comparisons meaningful.
package kvstore

import (
	"errors"

	"cachekv/internal/hw"
	"cachekv/internal/lsm"
	"cachekv/internal/util"
)

// ErrNotFound is returned by Get when the key does not exist (or its newest
// version is a tombstone).
var ErrNotFound = errors.New("kvstore: key not found")

// ErrClosed is returned by every engine for an operation on a store that has
// been closed. It is a programming error, not a condition to wait out: open
// the store again, do not retry.
var ErrClosed = errors.New("kvstore: store is closed")

// DB is the engine interface. Every operation executes on behalf of a
// simulated thread whose virtual clock absorbs the operation's cost.
type DB interface {
	// Put stores key -> value.
	Put(th *hw.Thread, key, value []byte) error
	// Get returns the freshest value for key, or ErrNotFound.
	Get(th *hw.Thread, key []byte) ([]byte, error)
	// Delete removes key (writes a tombstone).
	Delete(th *hw.Thread, key []byte) error
	// Scan visits up to limit live entries with key >= start in order,
	// stopping early if fn returns false. It returns the number visited.
	Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error)
	// FlushAll forces every buffered write down to the storage component and
	// waits for background work to settle (used between benchmark phases).
	FlushAll(th *hw.Thread) error
	// Close is the only thing that stops the store's goroutines. The machine
	// (and its PMem contents) outlive the engine, which is how crash tests
	// reopen state. Between hw.Machine Crash and Recover it is the
	// crash-stop — the store fails, drops its queued work, writes nothing
	// back and returns the failure — and it must come before Recover.
	Close(th *hw.Thread) error
	// Name identifies the engine variant in benchmark output.
	Name() string
}

// UserGetResult resolves the multi-source freshness race: engines gather the
// best candidate per layer and keep the one with the highest sequence.
type UserGetResult struct {
	Value []byte
	Seq   uint64
	Kind  util.ValueKind
	Found bool
}

// Consider merges a candidate into r if it is fresher than what r holds.
func (r *UserGetResult) Consider(value []byte, seq uint64, kind util.ValueKind) {
	if !r.Found || seq > r.Seq {
		r.Value, r.Seq, r.Kind, r.Found = value, seq, kind, true
	}
}

// ScanState is what a user scan keeps from one call to the next: its merge and
// its search-key and last-user-key buffers. The zero value is ready.
type ScanState struct {
	merge      lsm.MergingIterator
	ikey, last []byte
}

// ScanSources is a whole user scan: it merges the sources (newest first)
// through st, runs the user scan over them and closes them. A source that
// failed — a corrupt or vanished table block — fails the scan: the rows
// delivered are then a prefix of the answer, not the answer.
func ScanSources(st *ScanState, its []lsm.Iterator, start []byte, seq uint64, limit int, tombs []lsm.RangeDel, fn func(key, value []byte) bool) (int, error) {
	st.merge.Reset(its)
	defer st.merge.Close()
	n := st.scan(&st.merge, start, seq, limit, tombs, fn)
	return n, st.merge.Err()
}

// Last returns the last user key the latest scan through st decided, once it
// delivered a row: a scan that failed part-way can go on just past it.
func (st *ScanState) Last() []byte { return st.last }

// scan drives a merged internal-key iterator (memtables over tree)
// and yields each live user key's freshest value, skipping shadowed versions,
// tombstones and what range tombstones cover. It returns the number of
// entries visited. tombs is the pre-collected list of every range tombstone
// visible at the snapshot (a Seek past a tombstone's start key would never
// visit its entry, so coverage cannot be derived from the iterator alone). A
// key's freshest visible version is suppressed when some tombstone spans it
// with a strictly higher sequence — the equal-seq point write survives.
// KindRangeDel entries surfacing from the sources are structural, not key
// versions: they neither shadow a point write at the same user key nor appear
// in the output.
func (st *ScanState) scan(it lsm.Iterator, start []byte, seq uint64, limit int, tombs []lsm.RangeDel, fn func(key, value []byte) bool) int {
	st.ikey = util.MakeInternalKey(st.ikey[:0], start, seq, util.KindValue)
	it.Seek(st.ikey)
	haveLast := false
	n := 0
	for it.Valid() && (limit <= 0 || n < limit) {
		key := it.Key()
		if key.Seq() > seq || key.Kind() == util.KindRangeDel {
			it.Next()
			continue
		}
		u := key.UserKey()
		if haveLast && string(u) == string(st.last) {
			it.Next()
			continue
		}
		st.last = append(st.last[:0], u...)
		haveLast = true
		if key.Kind() == util.KindDelete {
			it.Next()
			continue
		}
		covered := false
		for _, rd := range tombs {
			if rd.Seq <= seq && rd.Covers(u, key.Seq()) {
				covered = true
				break
			}
		}
		if covered {
			it.Next()
			continue
		}
		n++
		// The limit-th row ends the scan where it stands: one more advance
		// could load a block nobody reads.
		if !fn(u, it.Value()) || n == limit {
			break
		}
		it.Next()
	}
	return n
}
