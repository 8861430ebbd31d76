// Package btree implements the B+-tree SLM-DB keeps in persistent memory to
// index KV pairs across its single-level SSTable layout. Interior nodes hold
// only separator keys; all values live in the leaves. A coarse reader/writer
// lock matches SLM-DB's design (its B+-tree is updated by one compaction/flush
// thread and read by queries; the paper's Figure 12 attributes its poor
// scaling to exactly this shared-index contention, which we reproduce with a
// virtual mutex at the engine level).
//
// Like the skiplist, operations accept a ChargeFunc reporting node visits so
// the engine can charge DRAM or PMem latency per hop.
package btree

import (
	"bytes"
	"sync"
)

// order is the maximum number of children of an interior node; leaves hold
// up to order-1 entries. 64 keeps trees shallow (3 levels reach ~250k
// entries) which matches the per-hop cost model.
const order = 64

// ChargeFunc receives node-visit counts for latency accounting.
type ChargeFunc func(nodeVisits int)

type leaf struct {
	keys   [][]byte
	values [][]byte
}

type interior struct {
	// keys[i] is the smallest key reachable under children[i+1].
	keys     [][]byte
	children []interface{} // *interior or *leaf
}

// Tree is the B+-tree.
type Tree struct {
	mu     sync.RWMutex
	root   interface{} // *interior or *leaf
	height int
	length int
}

// New returns an empty tree.
func New() *Tree {
	return &Tree{root: &leaf{}, height: 1}
}

// Len returns the number of entries.
func (t *Tree) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.length
}

// Height returns the current tree height (1 = a single leaf).
func (t *Tree) Height() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.height
}

// searchLeaf descends to the leaf that may hold key, counting visits.
func (t *Tree) searchLeaf(key []byte) (*leaf, int) {
	visits := 1
	n := t.root
	for {
		in, ok := n.(*interior)
		if !ok {
			return n.(*leaf), visits
		}
		i := lowerBound(in.keys, key)
		// children[i] covers keys < keys[i]; an exact separator match
		// belongs to the right child.
		if i < len(in.keys) && bytes.Equal(in.keys[i], key) {
			i++
		}
		n = in.children[i]
		visits++
	}
}

// lowerBound returns the first index i with keys[i] >= key.
func lowerBound(keys [][]byte, key []byte) int {
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := (lo + hi) / 2
		if bytes.Compare(keys[mid], key) < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Get returns the value at key, or (nil, false).
func (t *Tree) Get(key []byte, charge ChargeFunc) ([]byte, bool) {
	t.mu.RLock()
	lf, visits := t.searchLeaf(key)
	i := lowerBound(lf.keys, key)
	var v []byte
	found := i < len(lf.keys) && bytes.Equal(lf.keys[i], key)
	if found {
		v = lf.values[i]
	}
	t.mu.RUnlock()
	if charge != nil {
		charge(visits)
	}
	return v, found
}

// Insert sets key to value, replacing any existing entry. Key and value are
// retained by reference.
func (t *Tree) Insert(key, value []byte, charge ChargeFunc) {
	t.mu.Lock()
	visits, grew := t.insertLocked(key, value)
	if grew {
		t.length++
	}
	t.mu.Unlock()
	if charge != nil {
		charge(visits)
	}
}

func (t *Tree) insertLocked(key, value []byte) (visits int, grew bool) {
	type frame struct {
		n   *interior
		idx int
	}
	var path []frame
	n := t.root
	visits = 1
	for {
		in, ok := n.(*interior)
		if !ok {
			break
		}
		i := lowerBound(in.keys, key)
		if i < len(in.keys) && bytes.Equal(in.keys[i], key) {
			i++
		}
		path = append(path, frame{in, i})
		n = in.children[i]
		visits++
	}
	lf := n.(*leaf)
	i := lowerBound(lf.keys, key)
	if i < len(lf.keys) && bytes.Equal(lf.keys[i], key) {
		lf.values[i] = value
		return visits, false
	}
	lf.keys = insertBytes(lf.keys, i, key)
	lf.values = insertBytes(lf.values, i, value)
	grew = true

	if len(lf.keys) < order {
		return visits, grew
	}
	// Split the leaf and propagate.
	mid := len(lf.keys) / 2
	right := &leaf{
		keys:   append([][]byte(nil), lf.keys[mid:]...),
		values: append([][]byte(nil), lf.values[mid:]...),
	}
	lf.keys = lf.keys[:mid:mid]
	lf.values = lf.values[:mid:mid]
	upKey, rightChild := right.keys[0], interface{}(right)

	for len(path) > 0 {
		f := path[len(path)-1]
		path = path[:len(path)-1]
		in := f.n
		in.keys = insertBytes(in.keys, f.idx, upKey)
		in.children = insertChild(in.children, f.idx+1, rightChild)
		if len(in.children) <= order {
			return visits, grew
		}
		midI := len(in.keys) / 2
		upKey2 := in.keys[midI]
		rightIn := &interior{
			keys:     append([][]byte(nil), in.keys[midI+1:]...),
			children: append([]interface{}(nil), in.children[midI+1:]...),
		}
		in.keys = in.keys[:midI:midI]
		in.children = in.children[: midI+1 : midI+1]
		upKey, rightChild = upKey2, rightIn
	}
	// Root split.
	t.root = &interior{
		keys:     [][]byte{upKey},
		children: []interface{}{t.root, rightChild},
	}
	t.height++
	return visits, grew
}

func insertBytes(s [][]byte, i int, v []byte) [][]byte {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

func insertChild(s []interface{}, i int, v interface{}) []interface{} {
	s = append(s, nil)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}
