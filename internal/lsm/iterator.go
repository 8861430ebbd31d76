// Package lsm implements the storage component shared by every engine in the
// repository: a leveled LSM-tree of SSTables living in the PMem file layer,
// with a version set persisted through a manifest log, L0 flush, leveled
// compaction, and merged iteration — the LevelDB substrate the paper builds
// CacheKV on. A SingleLevel mode collapses the hierarchy to one sorted level,
// which is how SLM-DB organizes its on-storage data.
package lsm

import (
	"container/heap"
	"fmt"
	"sort"

	"cachekv/internal/hw"
	"cachekv/internal/sstable"
	"cachekv/internal/util"
)

// Iterator is the internal-key iterator every source (memtable adapters,
// SSTables, merged views) implements. Keys are internal keys ordered by
// util.CompareInternal. Key and Value are valid until the iterator moves.
type Iterator interface {
	Valid() bool
	SeekToFirst()
	Seek(ikey util.InternalKey)
	Next()
	Key() util.InternalKey
	Value() []byte
	// Err is the error that made the source invalid before its last entry
	// (a corrupt or unreadable table block); nil for a source that ran out.
	Err() error
	// Close releases what the source borrowed (pooled block windows). The
	// iterator must not be used afterwards.
	Close()
}

// mergeItem is one source inside the merge heap.
type mergeItem struct {
	it  Iterator
	ord int // tie-break: lower ord wins (newer source)
}

type mergeHeap []*mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	c := util.CompareInternal(h[i].it.Key(), h[j].it.Key())
	if c != 0 {
		return c < 0
	}
	return h[i].ord < h[j].ord
}
func (h mergeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x interface{}) { *h = append(*h, x.(*mergeItem)) }
func (h *mergeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// MergingIterator merges several sources into one ordered stream. Sources
// listed earlier win ties on identical internal keys (callers order newest
// first, although identical internal keys cannot occur between well-formed
// sources because sequence numbers are unique).
type MergingIterator struct {
	all []mergeItem
	h   mergeHeap
}

// NewMergingIterator builds a merged view of its (unpositioned) sources.
func NewMergingIterator(its ...Iterator) *MergingIterator {
	m := &MergingIterator{all: make([]mergeItem, len(its)), h: make(mergeHeap, 0, len(its))}
	for i, it := range its {
		m.all[i] = mergeItem{it: it, ord: i}
	}
	return m
}

func (m *MergingIterator) rebuild() {
	m.h = m.h[:0]
	for i := range m.all {
		if m.all[i].it.Valid() {
			m.h = append(m.h, &m.all[i])
		}
	}
	heap.Init(&m.h)
}

// SeekToFirst positions every source at its start.
func (m *MergingIterator) SeekToFirst() {
	for i := range m.all {
		m.all[i].it.SeekToFirst()
	}
	m.rebuild()
}

// Seek positions at the first merged entry >= ikey.
func (m *MergingIterator) Seek(ikey util.InternalKey) {
	for i := range m.all {
		m.all[i].it.Seek(ikey)
	}
	m.rebuild()
}

// Valid reports whether the merged stream has a current entry.
func (m *MergingIterator) Valid() bool { return len(m.h) > 0 }

// Key returns the current smallest internal key across sources.
func (m *MergingIterator) Key() util.InternalKey { return m.h[0].it.Key() }

// Value returns the value paired with Key.
func (m *MergingIterator) Value() []byte { return m.h[0].it.Value() }

// Next advances the winning source and restores heap order.
func (m *MergingIterator) Next() {
	top := m.h[0]
	top.it.Next()
	if top.it.Valid() {
		heap.Fix(&m.h, 0)
	} else {
		heap.Pop(&m.h)
	}
}

// Err returns the first error among the sources. A source that fails drops
// out of the merge, so the stream a caller consumed is short exactly when
// Err is non-nil: check it once the walk is over.
func (m *MergingIterator) Err() error {
	for i := range m.all {
		if err := m.all[i].it.Err(); err != nil {
			return err
		}
	}
	return nil
}

// Close closes every source.
func (m *MergingIterator) Close() {
	for i := range m.all {
		m.all[i].it.Close()
	}
	m.h = m.h[:0]
}

// levelIter concatenates the tables of one sorted run — a level whose files
// ascend without overlapping, or a single file — into one source. Seek
// binary-searches the files' largest keys and opens only the table it lands
// in; the next one is opened when the walk gets there, so a scan holds one
// table iterator per level however many files the level has.
type levelIter struct {
	t     *Tree
	th    *hw.Thread
	files []*FileMeta // a published level (or a slice of one): immutable
	i     int         // files[i] is open in cur
	cur   *sstable.Iter
	err   error
}

// open makes files[i] the current table. It reports false, leaving the
// iterator invalid, past the last file or when the table cannot be opened.
func (l *levelIter) open(i int) bool {
	l.Close()
	if i >= len(l.files) || l.err != nil {
		return false
	}
	r, err := l.t.reader(l.th, l.files[i].Num)
	if err == nil {
		l.cur, err = r.NewIter(l.th)
	}
	if err != nil {
		l.err = fmt.Errorf("lsm: iterator: open table %d: %w", l.files[i].Num, err)
		return false
	}
	l.i = i
	return true
}

func (l *levelIter) SeekToFirst() {
	if l.open(0) {
		l.cur.SeekToFirst()
		l.skipForward()
	}
}

func (l *levelIter) Seek(ikey util.InternalKey) {
	i := sort.Search(len(l.files), func(i int) bool {
		return util.CompareInternal(l.files[i].Largest, ikey) >= 0
	})
	if l.open(i) {
		l.cur.Seek(ikey)
		l.skipForward()
	}
}

func (l *levelIter) Next() {
	l.cur.Next()
	l.skipForward()
}

// skipForward moves to the first entry of the next file while the current
// table is exhausted; a table that failed ends the walk with its error.
func (l *levelIter) skipForward() {
	for !l.cur.Valid() {
		if l.err = l.cur.Err(); l.err != nil || !l.open(l.i+1) {
			return
		}
		l.cur.SeekToFirst()
	}
}

func (l *levelIter) Valid() bool           { return l.cur != nil && l.cur.Valid() }
func (l *levelIter) Key() util.InternalKey { return l.cur.Key() }
func (l *levelIter) Value() []byte         { return l.cur.Value() }

func (l *levelIter) Err() error {
	if l.err == nil && l.cur != nil {
		l.err = l.cur.Err()
	}
	return l.err
}

func (l *levelIter) Close() {
	if l.cur != nil {
		l.Err()
		l.cur.Close()
		l.cur = nil
	}
}
