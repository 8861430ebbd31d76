// Package lsm implements the storage component shared by every engine in the
// repository: a leveled LSM-tree of SSTables living in the PMem file layer,
// with a version set persisted through a manifest log, L0 flush, leveled
// compaction, and merged iteration — the LevelDB substrate the paper builds
// CacheKV on. A SingleLevel mode collapses the hierarchy to one sorted level,
// which is how SLM-DB organizes its on-storage data.
package lsm

import (
	"fmt"
	"slices"
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

// less orders sources by (current internal key, ord).
func (a *mergeItem) less(b *mergeItem) bool {
	if c := util.CompareInternal(a.it.Key(), b.it.Key()); c != 0 {
		return c < 0
	}
	return a.ord < b.ord
}

// MergingIterator merges several sources into one ordered stream. Sources
// listed earlier win ties on identical internal keys (callers order newest
// first, although identical internal keys cannot occur between well-formed
// sources because sequence numbers are unique). The zero value is empty; Reset
// gives it sources, so a merge reused walk after walk allocates nothing.
type MergingIterator struct {
	all []mergeItem
	h   []*mergeItem // a binary min-heap of the valid sources
}

// Reset makes its (unpositioned) sources the merge's, in their order.
func (m *MergingIterator) Reset(its []Iterator) {
	m.all, m.h = slices.Grow(m.all[:0], len(its)), slices.Grow(m.h[:0], len(its))
	for i, it := range its {
		m.all = append(m.all, mergeItem{it: it, ord: i})
	}
}

// rebuild heaps the valid sources once every one is positioned. A source that
// failed leaves the merge empty.
func (m *MergingIterator) rebuild() {
	m.h = m.h[:0]
	for i := range m.all {
		if m.all[i].it.Valid() {
			m.h = append(m.h, &m.all[i])
		} else if m.all[i].it.Err() != nil {
			m.h = m.h[:0]
			return
		}
	}
	for i := len(m.h)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
}

// down sifts h[i] towards the leaves until neither child is smaller.
func (m *MergingIterator) down(i int) {
	h := m.h
	for {
		j := 2*i + 1
		if j >= len(h) {
			return
		}
		if r := j + 1; r < len(h) && h[r].less(h[j]) {
			j = r
		}
		if !h[j].less(h[i]) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
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

// Next advances the winning source and restores heap order. A source that
// fails ends the merge where it stands.
func (m *MergingIterator) Next() {
	top := m.h[0]
	top.it.Next()
	switch n := len(m.h) - 1; {
	case top.it.Valid():
	case top.it.Err() != nil:
		m.h = m.h[:0]
		return
	default:
		m.h[0] = m.h[n]
		m.h = m.h[:n]
	}
	m.down(0)
}

// Err returns the first error among the sources. A source that fails ends
// the merge, so the stream a caller consumed is a prefix of the whole exactly
// when Err is non-nil: check it once the walk is over.
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
// table iterator per level however many files the level has. Opening a table
// re-targets the one iterator the levelIter embeds.
type levelIter struct {
	t     *Tree
	th    *hw.Thread
	files []*FileMeta   // a published level (or a slice of one): immutable
	i     int           // files[i] is open in cur
	cur   *sstable.Iter // &it while a table is open, else nil
	it    sstable.Iter
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
		err = r.ResetIter(&l.it, l.th)
	}
	if err != nil {
		l.err = fmt.Errorf("lsm: iterator: open table %d: %w", l.files[i].Num, err)
		return false
	}
	l.i, l.cur = i, &l.it
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

// TreeSources holds the sources AppendSources hands out, so a scan repeated
// through one allocates none. The zero value is ready.
type TreeSources struct{ runs []levelIter }

// AppendSources appends to dst a source per sorted run of the tree's published
// version: one per L0 file, newest first, then one per deeper level (one per
// file under SingleLevel). A scan holds open as many tables as it has
// sources, and none before a Seek lands in it. The sources live in ts until
// its next AppendSources; Close them when the walk ends.
func (t *Tree) AppendSources(th *hw.Thread, dst []Iterator, ts *TreeSources) []Iterator {
	// The published version is immutable (see apply): the sources walk its
	// level slices as they are.
	t.mu.RLock()
	levels := t.levels
	t.mu.RUnlock()
	ts.runs = ts.runs[:0]
	for lvl, files := range levels {
		if lvl == 0 || t.opts.SingleLevel {
			for i := range files {
				ts.runs = append(ts.runs, levelIter{t: t, th: th, files: files[i : i+1]})
			}
		} else if len(files) > 0 {
			ts.runs = append(ts.runs, levelIter{t: t, th: th, files: files})
		}
	}
	for i := range ts.runs { // only now is ts.runs where it stays
		dst = append(dst, &ts.runs[i])
	}
	return dst
}
