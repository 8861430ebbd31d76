// Package skiplist implements the concurrent ordered map used for every
// memtable index in the repository: the baselines' MemTable skiplists and the
// per-sub-MemTable sub-skiplists of CacheKV's lazy index.
//
// Inserts are lock-free (CAS splicing at every level, as in LevelDB's
// concurrent skiplist but allowing many writers); reads never block. Nodes
// are never physically removed — LSM semantics supersede entries with newer
// sequence numbers instead — except via whole-list replacement during
// compaction.
//
// A list owns its memory: nodes, towers and the key and value bytes it is
// handed are carved out of chunked slabs that belong to the list and are
// collected with it. Insert copies what it is given, so a caller may reuse
// its buffers as soon as the call returns; a key or value the list hands back
// (Get, Iterator) stays valid, and unchanged, for as long as the list is
// reachable.
//
// Because the same structure lives in DRAM in some engines and in PMem in
// others (where node visits are ~3-4x slower), operations accept an optional
// ChargeFunc: the list reports how many node hops an operation made and the
// caller converts hops into virtual time at its tier's latency.
package skiplist

import (
	"bytes"
	"sync/atomic"

	"cachekv/internal/hw/sim"
)

const (
	maxHeight = 12
	branching = 4
)

// Comparator orders keys. bytes.Compare is the default.
type Comparator func(a, b []byte) int

// ChargeFunc receives the number of node visits an operation performed so the
// caller can charge memory-tier latency. A nil ChargeFunc charges nothing.
type ChargeFunc func(nodeVisits int)

type node struct {
	key   []byte
	value atomic.Pointer[[]byte] // &first until the key's value is replaced
	first []byte                 // the value the node was created with
	next  []atomic.Pointer[node] // len == node height
}

// slab hands out runs of T carved from chunks it allocates: the first chunk
// holds next elements and each later one twice the one before, up to limit.
// Nothing is handed back; the chunks go when the list that owns them does.
type slab[T any] struct {
	free        []T
	next, limit int
}

// take returns n fresh (zero) elements nobody else holds. A run that is large
// against the biggest chunk gets an allocation of its own, so that it does not
// strand the rest of the current chunk.
func (s *slab[T]) take(n int) []T {
	if n > len(s.free) {
		if 4*n > s.limit {
			return make([]T, n)
		}
		size := max(s.next, 4*n)
		s.free = make([]T, size)
		s.next = min(2*size, s.limit)
	}
	run := s.free[:n:n]
	s.free = s.free[n:]
	return run
}

// List is the concurrent skiplist.
type List struct {
	cmp    Comparator
	head   *node
	height atomic.Int32
	length atomic.Int64

	// mu guards the tower-height RNG and the slabs; inserts hold it for the
	// few instructions it takes to draw a height and carve a node.
	mu     spinLock
	rng    *sim.RNG
	nodes  slab[node]
	towers slab[atomic.Pointer[node]]
	bytes  slab[byte]
	boxes  slab[[]byte] // slice headers of replacement values
}

// spinLock is a tiny mutex; critical sections are a few instructions.
type spinLock struct{ v atomic.Int32 }

func (s *spinLock) lock() {
	for !s.v.CompareAndSwap(0, 1) {
	}
}
func (s *spinLock) unlock() { s.v.Store(0) }

// New creates an empty list ordered by cmp (bytes.Compare when nil), with a
// deterministic tower-height RNG seeded by seed.
func New(cmp Comparator, seed uint64) *List {
	if cmp == nil {
		cmp = bytes.Compare
	}
	l := &List{
		cmp: cmp,
		rng: sim.NewRNG(seed),
		// A small list stays small; a table-sized one settles at a few dozen
		// chunks of 32-64 KiB.
		nodes:  slab[node]{next: 16, limit: 512},
		towers: slab[atomic.Pointer[node]]{next: 64, limit: 4096},
		bytes:  slab[byte]{next: 1 << 10, limit: 64 << 10},
		boxes:  slab[[]byte]{next: 8, limit: 1024},
	}
	l.head = l.newNode(nil, nil, maxHeight)
	l.height.Store(1)
	return l
}

// Len returns the number of entries inserted (replacements via Insert of an
// existing key do not change the length).
func (l *List) Len() int { return int(l.length.Load()) }

// randomHeight draws a tower height; l.mu held.
func (l *List) randomHeight() int {
	h := 1
	for h < maxHeight && l.rng.Intn(branching) == 0 {
		h++
	}
	return h
}

// own copies b into the list's byte slab; l.mu held.
func (l *List) own(b []byte) []byte {
	c := l.bytes.take(len(b))
	copy(c, b)
	return c
}

// newNode carves a node of the given height holding copies of key and value;
// l.mu held (or the list not yet shared).
func (l *List) newNode(key, value []byte, height int) *node {
	n := &l.nodes.take(1)[0]
	n.next = l.towers.take(height)
	n.key, n.first = l.own(key), l.own(value)
	n.value.Store(&n.first)
	return n
}

// replace publishes a copy of value as n's value.
func (l *List) replace(n *node, value []byte) {
	l.mu.lock()
	box := &l.boxes.take(1)[0]
	*box = l.own(value)
	l.mu.unlock()
	n.value.Store(box)
}

// findGE walks to the first node with key >= key. When prev is non-nil it is
// filled with the predecessor at every level (for splicing). Returns the node
// (or nil) and the number of node visits made.
func (l *List) findGE(key []byte, prev *[maxHeight]*node) (*node, int) {
	visits := 0
	x := l.head
	level := int(l.height.Load()) - 1
	for {
		next := x.next[level].Load()
		if next != nil && l.cmp(next.key, key) < 0 {
			x = next
			visits++
			continue
		}
		if prev != nil {
			prev[level] = x
		}
		if level == 0 {
			return next, visits + 1
		}
		level--
	}
}

// Insert adds key with value. If an equal key already exists its value is
// replaced atomically (last writer wins). Key and value are copied: the caller
// may reuse both as soon as Insert returns.
func (l *List) Insert(key, value []byte, charge ChargeFunc) {
	var prev [maxHeight]*node
	var n *node // carved once; a retry splices the same node
	for {
		found, visits := l.findGE(key, &prev)
		if charge != nil {
			charge(visits)
		}
		if found != nil && l.cmp(found.key, key) == 0 {
			l.replace(found, value)
			return
		}
		if n == nil {
			l.mu.lock()
			n = l.newNode(key, value, l.randomHeight())
			l.mu.unlock()
		}
		h := len(n.next)
		if cur := int(l.height.Load()); h > cur {
			// Raise the list height; racing raisers are harmless because the
			// head has maxHeight levels and prev for new levels is the head.
			l.height.CompareAndSwap(int32(cur), int32(h))
			for i := cur; i < h; i++ {
				prev[i] = l.head
			}
		}
		// Splice bottom-up; level 0 makes the node reachable, so its CAS is
		// the linearization point. A failed CAS at level 0 means a racing
		// insert changed the neighborhood: re-find and retry entirely.
		succ := prev[0].next[0].Load()
		if succ != nil && l.cmp(succ.key, key) < 0 {
			continue // stale predecessor, retry
		}
		n.next[0].Store(succ)
		if !prev[0].next[0].CompareAndSwap(succ, n) {
			continue
		}
		l.length.Add(1)
		for i := 1; i < h; i++ {
			for {
				succ := prev[i].next[i].Load()
				if succ != nil && l.cmp(succ.key, key) < 0 {
					// Predecessor went stale at this level; re-locate it.
					var p2 [maxHeight]*node
					l.findGE(key, &p2)
					prev[i] = p2[i]
					continue
				}
				n.next[i].Store(succ)
				if prev[i].next[i].CompareAndSwap(succ, n) {
					break
				}
			}
		}
		return
	}
}

// Get returns the value stored at exactly key, or (nil, false).
func (l *List) Get(key []byte, charge ChargeFunc) ([]byte, bool) {
	n, visits := l.findGE(key, nil)
	if charge != nil {
		charge(visits)
	}
	if n != nil && l.cmp(n.key, key) == 0 {
		return *n.value.Load(), true
	}
	return nil, false
}

// Iterator walks the list in key order. Iterators are not safe for
// concurrent use, but may run concurrently with inserts (they observe a
// consistent, possibly slightly stale view).
type Iterator struct {
	l *List
	n *node
}

// NewIterator returns an unpositioned iterator; call Seek* before use.
func (l *List) NewIterator() *Iterator { return &Iterator{l: l} }

// ResetIterator makes it an unpositioned iterator over l, as NewIterator
// would return, without allocating one.
func (l *List) ResetIterator(it *Iterator) { *it = Iterator{l: l} }

// Valid reports whether the iterator is positioned on an entry.
func (it *Iterator) Valid() bool { return it.n != nil }

// Key returns the current entry's key; only valid when Valid().
func (it *Iterator) Key() []byte { return it.n.key }

// Value returns the current entry's value; only valid when Valid().
func (it *Iterator) Value() []byte { return *it.n.value.Load() }

// Next advances to the following entry.
func (it *Iterator) Next() { it.n = it.n.next[0].Load() }

// SeekToFirst positions at the smallest entry.
func (it *Iterator) SeekToFirst() { it.n = it.l.head.next[0].Load() }

// Seek positions at the first entry with key >= key and reports node visits
// through charge.
func (it *Iterator) Seek(key []byte, charge ChargeFunc) {
	n, visits := it.l.findGE(key, nil)
	if charge != nil {
		charge(visits)
	}
	it.n = n
}
