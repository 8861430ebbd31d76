// Package block implements the SSTable block format: prefix-compressed
// entries with restart points every 16 keys, terminated by the restart array
// and its count, exactly as in LevelDB. Data blocks, index blocks and meta
// blocks all share this encoding.
package block

import (
	"bytes"

	"cachekv/internal/util"
)

const restartInterval = 16

// Builder assembles one block. Keys must be added in ascending order.
type Builder struct {
	buf      []byte
	restarts []uint32
	counter  int
	lastKey  []byte
	entries  int
}

// NewBuilder returns an empty block builder.
func NewBuilder() *Builder {
	return &Builder{restarts: []uint32{0}}
}

// Add appends key/value. Keys must arrive in strictly ascending order; the
// builder prefix-compresses against the previous key within a restart run.
func (b *Builder) Add(key, value []byte) {
	shared := 0
	if b.counter < restartInterval {
		n := len(b.lastKey)
		if len(key) < n {
			n = len(key)
		}
		for shared < n && b.lastKey[shared] == key[shared] {
			shared++
		}
	} else {
		b.restarts = append(b.restarts, uint32(len(b.buf)))
		b.counter = 0
	}
	b.buf = util.PutUvarint(b.buf, uint64(shared))
	b.buf = util.PutUvarint(b.buf, uint64(len(key)-shared))
	b.buf = util.PutUvarint(b.buf, uint64(len(value)))
	b.buf = append(b.buf, key[shared:]...)
	b.buf = append(b.buf, value...)
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// Empty reports whether nothing has been added.
func (b *Builder) Empty() bool { return b.entries == 0 }

// EstimatedSize returns the finished block size so far.
func (b *Builder) EstimatedSize() int {
	return len(b.buf) + 4*len(b.restarts) + 4
}

// Finish appends the restart array and returns the completed block contents.
// The builder must be Reset before reuse.
func (b *Builder) Finish() []byte {
	for _, r := range b.restarts {
		b.buf = util.PutFixed32(b.buf, r)
	}
	b.buf = util.PutFixed32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// Reset clears the builder for a new block.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.restarts = append(b.restarts[:0], 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries = 0
}

// Backing faults byte ranges of a block into the buffer an Iter decodes
// from. A point read that searches a block in place on byte-addressable PMem
// implements it to load only the cache lines the search touches; Need(lo, hi)
// must make buf[lo:hi] valid before it returns.
type Backing interface {
	Need(lo, hi int) error
}

// maxEntryHeader bounds an entry's three length varints. Each length is
// smaller than the block, so a varint longer than five bytes is corrupt.
const maxEntryHeader = 15

// Iter iterates over a finished block's entries. It decodes either resident
// contents (back == nil) or a buffer its Backing fills on demand; both run
// the same code, which asks for every byte range before reading it and
// bounds-checks every count, offset and length taken from the block first.
type Iter struct {
	data      []byte  // whole block; with a Backing only the ranges asked for are valid
	back      Backing // nil when data is resident
	limit     int     // end of the entry area, start of the restart array
	nRestarts int
	nextOff   int
	key       []byte
	vlo, vhi  int // extent of the current value within data
	valid     bool
	err       error
}

// NewIter parses contents (a finished block) and returns an unpositioned
// iterator.
func NewIter(contents []byte) (*Iter, error) {
	it := new(Iter)
	if err := it.Reset(contents); err != nil {
		return nil, err
	}
	return it, nil
}

// Reset re-targets the iterator at resident contents, keeping its key buffer.
func (it *Iter) Reset(contents []byte) error { return it.reset(contents, nil) }

// ResetLazy re-targets the iterator at a block of len(buf) bytes that back
// faults into buf on demand.
func (it *Iter) ResetLazy(buf []byte, back Backing) error { return it.reset(buf, back) }

// reset validates the trailer once for either backing: the restart count
// fits the block and the restart offsets ascend strictly within the entry
// area, so every later restart lookup and slice is in range.
func (it *Iter) reset(data []byte, back Backing) error {
	*it = Iter{data: data, back: back, key: it.key[:0]}
	n := len(data)
	if n < 4 || !it.need(n-4, n) {
		return it.corrupt()
	}
	count := int(util.Fixed32(data[n-4:]))
	if count < 1 || count > (n-4)/4 {
		return it.corrupt()
	}
	it.nRestarts = count
	it.limit = n - 4 - 4*count
	if !it.need(it.limit, n-4) {
		return it.corrupt()
	}
	prev := -1
	for i := 0; i < count; i++ {
		r := it.restart(i)
		if r <= prev || r > it.limit {
			return it.corrupt()
		}
		prev = r
	}
	return nil
}

// corrupt records and returns the iterator's error, ErrCorrupt unless a
// Backing fault already set one.
func (it *Iter) corrupt() error {
	if it.err == nil {
		it.err = util.ErrCorrupt
	}
	it.valid = false
	return it.err
}

// need makes data[lo:hi] readable. It is a no-op on resident contents.
func (it *Iter) need(lo, hi int) bool {
	if it.back == nil || lo >= hi {
		return true
	}
	if err := it.back.Need(lo, hi); err != nil {
		it.err = err
		it.valid = false
		return false
	}
	return true
}

// restart returns restart offset i, decoded in place (reset validated it).
func (it *Iter) restart(i int) int {
	return int(util.Fixed32(it.data[it.limit+4*i:]))
}

// Valid reports whether the iterator is positioned on an entry.
func (it *Iter) Valid() bool { return it.valid && it.err == nil }

// Err returns any corruption encountered while iterating.
func (it *Iter) Err() error { return it.err }

// Key returns the current full key.
func (it *Iter) Key() []byte { return it.key }

// Value returns the current value, or nil (and Err) when its bytes cannot be
// faulted in.
func (it *Iter) Value() []byte {
	if !it.need(it.vlo, it.vhi) {
		return nil
	}
	return it.data[it.vlo:it.vhi]
}

// SeekToFirst positions at the first entry.
func (it *Iter) SeekToFirst() {
	it.key = it.key[:0]
	it.nextOff = 0
	it.Next()
}

// Next advances to the following entry.
func (it *Iter) Next() {
	it.valid = it.err == nil && it.nextOff < it.limit && it.decodeAt(it.nextOff)
}

// header decodes the entry header at off and returns the shared-prefix
// length and the key and value extents, all checked against the entry area.
func (it *Iter) header(off int) (shared, klo, khi, vhi int, ok bool) {
	end := off + maxEntryHeader
	if end > it.limit {
		end = it.limit
	}
	if !it.need(off, end) {
		return 0, 0, 0, 0, false
	}
	p := it.data[off:end]
	var sh, unshared, vlen uint64
	if len(p) >= 3 && p[0]|p[1]|p[2] < 0x80 {
		// All three lengths fit one byte each: the common case.
		sh, unshared, vlen = uint64(p[0]), uint64(p[1]), uint64(p[2])
		klo = off + 3
	} else {
		var n1, n2, n3 int
		var err1, err2, err3 error
		sh, n1, err1 = util.Uvarint(p)
		unshared, n2, err2 = util.Uvarint(p[n1:])
		vlen, n3, err3 = util.Uvarint(p[n1+n2:])
		if err1 != nil || err2 != nil || err3 != nil {
			it.corrupt()
			return 0, 0, 0, 0, false
		}
		klo = off + n1 + n2 + n3
	}
	room := uint64(it.limit - klo)
	if unshared > room || vlen > room-unshared || sh > uint64(len(it.data)) {
		it.corrupt()
		return 0, 0, 0, 0, false
	}
	khi = klo + int(unshared)
	return int(sh), klo, khi, khi + int(vlen), true
}

// decodeAt parses the entry at off, updating key, value extent and nextOff.
// The key is reconstructed using the current it.key prefix, so callers must
// walk entries in order from a restart point.
func (it *Iter) decodeAt(off int) bool {
	shared, klo, khi, vhi, ok := it.header(off)
	if !ok {
		return false
	}
	if shared > len(it.key) {
		it.corrupt()
		return false
	}
	if !it.need(klo, khi) {
		return false
	}
	it.key = append(it.key[:shared], it.data[klo:khi]...)
	it.vlo, it.vhi = khi, vhi
	it.nextOff = vhi
	return true
}

// Seek positions at the first entry with key >= target (by cmp; nil means
// bytes.Compare). It binary-searches the restart array then scans.
func (it *Iter) Seek(target []byte, cmp func(a, b []byte) int) {
	if cmp == nil {
		cmp = bytes.Compare
	}
	if it.err != nil {
		it.valid = false
		return
	}
	// Find the last restart whose key < target.
	lo, hi := 0, it.nRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		k, ok := it.keyAtRestart(mid)
		if !ok {
			return
		}
		if cmp(k, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.key = it.key[:0]
	it.nextOff = it.restart(lo)
	for {
		it.Next()
		if !it.valid || cmp(it.key, target) >= 0 {
			return
		}
	}
}

// keyAtRestart decodes the full key stored at restart index i (restart
// entries always have shared == 0).
func (it *Iter) keyAtRestart(i int) ([]byte, bool) {
	shared, klo, khi, _, ok := it.header(it.restart(i))
	if !ok {
		return nil, false
	}
	if shared != 0 {
		it.corrupt()
		return nil, false
	}
	if !it.need(klo, khi) {
		return nil, false
	}
	return it.data[klo:khi], true
}
