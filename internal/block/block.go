// Package block implements the SSTable block format: restart runs of up to 16
// prefix-compressed entries, each run keeping its keys apart from its values,
// terminated by the restart array and its count. Data blocks, index blocks and
// meta blocks all share this encoding.
//
//	block    = run* ‖ restart[0..n) (fixed32 each) ‖ n (fixed32)
//	run      = uvarint(len(key area)<<1 | aligned) ‖ key area ‖ pad ‖ value area
//	key area = (uvarint shared ‖ uvarint unshared ‖ uvarint vlen ‖ key suffix)*
//	pad      = zero bytes up to the next PMem cache line if aligned, else none
//	value area = the run's values, in the order of their key records
//
// restart[i] is the offset of run i. A search reads key records only — a
// couple of dozen bytes apiece, back to back — and jumps to the one value it
// returns: on byte-addressable PMem the bytes a comparison never looks at stay
// out of the cache lines it pays for. A run whose values would touch fewer
// lines starting on a line boundary starts them there, so a 64 B value costs
// one line rather than two. Where the lines fall depends on where the block
// lies: its skew, the PMem address of its first byte mod LineSize, which the
// writer gives the Builder and every reader gives the Iter. A block read at
// another skew than it was built at decodes as corrupt or wrong.
package block

import (
	"bytes"

	"cachekv/internal/util"
)

const restartInterval = 16

// LineSize is the PMem cache line a run's value area may be aligned to.
const LineSize = 64

// valueStart is the one rule that places a run's value area: right behind its
// key area, which ends at kend, or on the next line when the run header's
// aligned bit is set.
func valueStart(kend, skew int, aligned bool) int {
	if !aligned {
		return kend
	}
	return kend + -(kend+skew)&(LineSize-1)
}

// valueLines counts the lines that values of the given lengths touch, each
// on its own, when the first starts at v: what point reads of them cost.
func valueLines(v, skew int, vlens []int) int {
	n := 0
	for _, l := range vlens {
		if l > 0 {
			n += (v+skew+l-1)/LineSize - (v+skew)/LineSize + 1
		}
		v += l
	}
	return n
}

// Builder assembles one block. Keys must be added in ascending order.
type Builder struct {
	buf        []byte // finished runs; after Finish, the block
	keys, vals []byte // the open run's key area and value area
	vlens      []int  // the open run's value lengths
	restarts   []uint32
	counter    int // entries in the open run
	lastKey    []byte
	entries    int
	skew       int // PMem address of the block's first byte, mod LineSize
	pad        int // pad bytes in buf
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
		b.closeRun()
		b.restarts = append(b.restarts, uint32(len(b.buf)))
	}
	b.keys = util.PutUvarint(b.keys, uint64(shared))
	b.keys = util.PutUvarint(b.keys, uint64(len(key)-shared))
	b.keys = util.PutUvarint(b.keys, uint64(len(value)))
	b.keys = append(b.keys, key[shared:]...)
	b.vals = append(b.vals, value...)
	b.vlens = append(b.vlens, len(value))
	b.lastKey = append(b.lastKey[:0], key...)
	b.counter++
	b.entries++
}

// closeRun writes the open run — header, key area, pad, value area — behind
// the finished ones. It pads only when that lowers the lines the run's values
// touch: values that straddle no line boundary gain nothing from it.
func (b *Builder) closeRun() {
	if b.counter == 0 {
		return
	}
	head := uint64(len(b.keys)) << 1 // the aligned bit does not change the varint's length
	kend := len(b.buf) + util.UvarintLen(head) + len(b.keys)
	v := valueStart(kend, b.skew, true)
	if valueLines(v, b.skew, b.vlens) < valueLines(kend, b.skew, b.vlens) {
		head |= 1
	} else {
		v = kend
	}
	b.buf = util.PutUvarint(b.buf, head)
	b.buf = append(b.buf, b.keys...)
	b.buf = append(b.buf, make([]byte, v-kend)...)
	b.buf = append(b.buf, b.vals...)
	b.pad += v - kend
	b.keys, b.vals, b.vlens, b.counter = b.keys[:0], b.vals[:0], b.vlens[:0], 0
}

// Empty reports whether nothing has been added.
func (b *Builder) Empty() bool { return b.entries == 0 }

// SetSkew tells the builder where the block will lie: the PMem address of its
// first byte, mod LineSize. Call it before the block's first Add; a new or
// Reset builder assumes 0.
func (b *Builder) SetSkew(skew int) { b.skew = skew }

// EstimatedSize returns the finished block size so far — the closed runs, the
// open run with its header, and the trailer — less the pad bytes: a block
// closes on the entries it holds, not on where it happens to lie.
func (b *Builder) EstimatedSize() int {
	n := len(b.buf) - b.pad + 4*len(b.restarts) + 4
	if b.counter > 0 {
		n += util.UvarintLen(uint64(len(b.keys))) + len(b.keys) + len(b.vals)
	}
	return n
}

// Finish closes the open run, appends the restart array and returns the
// completed block contents. The builder must be Reset before reuse.
func (b *Builder) Finish() []byte {
	b.closeRun()
	for _, r := range b.restarts {
		b.buf = util.PutFixed32(b.buf, r)
	}
	b.buf = util.PutFixed32(b.buf, uint32(len(b.restarts)))
	return b.buf
}

// Reset clears the builder for a new block.
func (b *Builder) Reset() {
	b.buf = b.buf[:0]
	b.keys, b.vals, b.vlens = b.keys[:0], b.vals[:0], b.vlens[:0]
	b.restarts = append(b.restarts[:0], 0)
	b.counter = 0
	b.lastKey = b.lastKey[:0]
	b.entries, b.skew, b.pad = 0, 0, 0
}

// Backing faults byte ranges of a block into the buffer an Iter decodes
// from. A foreground read that searches a block in place on byte-addressable
// PMem implements it to load only the cache lines the search touches;
// Need(lo, hi) must make buf[lo:hi] valid before it returns.
type Backing interface {
	Need(lo, hi int) error
}

// Fault is what an Iter over a Backing asks for ahead of the byte it is about
// to decode. Which one a reader wants follows from what it is — a point
// lookup or a walk — so the constructor it calls chooses, not an option.
type Fault bool

const (
	// FaultPoint asks for key records as the search reaches them and for the
	// one value the caller reads: the fewest lines, for a lookup that leaves
	// the block after one entry.
	FaultPoint Fault = false
	// FaultWalk asks for the whole key area of a run on entering it — where a
	// Seek lands and when Next crosses into the next run, not for the restart
	// keys a Seek only probes. A walk then fetches key area, values, next key
	// area in ascending address order, which the DIMM serves as a sequential
	// read; alternating between a run's key lines and its value lines does not.
	FaultWalk Fault = true
)

const (
	// maxVarint bounds a length varint. Every length is smaller than the
	// block, so one longer than five bytes is corrupt.
	maxVarint = 5
	// maxRecordHeader bounds a key record's three length varints.
	maxRecordHeader = 3 * maxVarint
)

// Iter iterates over a finished block's entries. It decodes either resident
// contents (back == nil) or a buffer its Backing fills on demand; both run
// the same code, which asks for every byte range before reading it and
// bounds-checks every count, offset and length taken from the block first.
type Iter struct {
	data      []byte  // whole block; with a Backing only the ranges asked for are valid
	back      Backing // nil when data is resident
	fault     Fault
	skew      int // the block's PMem address mod LineSize, as it was built
	limit     int // end of the entry area, start of the restart array
	nRestarts int
	run       int // index of the run the cursors are in
	kpos      int // key cursor: the next key record
	kend      int // end of the current run's key area
	vpos      int // value cursor: the next entry's value; past the run's last entry, the next run
	key       []byte
	vlo, vhi  int // extent of the current value within data
	valid     bool
	err       error
}

// NewIter parses contents (a finished block built at skew 0, as index blocks
// are) and returns an unpositioned iterator.
func NewIter(contents []byte) (*Iter, error) {
	it := new(Iter)
	if err := it.Reset(contents, 0); err != nil {
		return nil, err
	}
	return it, nil
}

// Reset re-targets the iterator at resident contents built at skew, keeping
// its key buffer. A copy of a block keeps the skew of the place it came from.
func (it *Iter) Reset(contents []byte, skew int) error {
	return it.ResetLazy(contents, skew, nil, FaultPoint)
}

// ResetLazy re-targets the iterator at a block of len(data) bytes, built at
// skew, that back faults into data on demand, by the given policy. It
// validates the trailer once, for either backing: the restart count fits the
// block and the restart offsets ascend strictly within the entry area, so
// every later restart lookup and slice is in range.
func (it *Iter) ResetLazy(data []byte, skew int, back Backing, policy Fault) error {
	*it = Iter{data: data, back: back, fault: policy, skew: skew, key: it.key[:0]}
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
	it.before(0)
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
	it.before(0)
	it.Next()
}

// Next advances to the following entry.
func (it *Iter) Next() {
	it.valid = it.err == nil && it.next()
}

// before leaves the cursors as the end of run i-1 leaves them, so that the
// next Next opens run i.
func (it *Iter) before(i int) {
	it.run, it.kpos, it.kend, it.vpos = i-1, 0, 0, it.restart(i)
}

// next decodes the key record under the key cursor. When the run is exhausted
// it crosses into the next one, which starts where this run's values end — and
// the restart array must say so too.
func (it *Iter) next() bool {
	if it.kpos == it.kend {
		if it.vpos == it.limit {
			return false // the entry area is used up
		}
		i := it.run + 1
		if i >= it.nRestarts || it.restart(i) != it.vpos {
			it.corrupt()
			return false
		}
		if !it.openRun(i, it.fault) {
			return false
		}
	}
	return it.record()
}

// openRun decodes the header of run i, points the key cursor at its first
// record and the value cursor at its value area, and empties the key: a run
// opens on a full key, so its first record must share nothing. The key area
// is at least one byte long and lies inside the entry area, and so does the
// start of the value area.
func (it *Iter) openRun(i int, policy Fault) bool {
	off := it.restart(i)
	end := off + maxVarint
	if end > it.limit {
		end = it.limit
	}
	if !it.need(off, end) {
		return false
	}
	head, n, err := util.Uvarint(it.data[off:end])
	klen := head >> 1
	if err != nil || klen == 0 || klen > uint64(it.limit-off-n) {
		it.corrupt()
		return false
	}
	it.run, it.kpos = i, off+n
	it.kend = it.kpos + int(klen)
	if it.vpos = valueStart(it.kend, it.skew, head&1 != 0); it.vpos > it.limit {
		it.corrupt()
		return false
	}
	it.key = it.key[:0]
	return policy == FaultPoint || it.need(it.kpos, it.kend)
}

// record decodes the key record under the key cursor — rebuilding the key on
// the previous one, so records are walked in order from the start of a run —
// and moves both cursors past the entry. The record ends inside its key area
// and the value inside the entry area.
func (it *Iter) record() bool {
	off := it.kpos
	end := off + maxRecordHeader
	if end > it.kend {
		end = it.kend
	}
	if !it.need(off, end) {
		return false
	}
	p := it.data[off:end]
	var shared, unshared, vlen uint64
	klo := off + 3
	if len(p) >= 3 && p[0]|p[1]|p[2] < 0x80 {
		// All three lengths fit one byte each: the common case.
		shared, unshared, vlen = uint64(p[0]), uint64(p[1]), uint64(p[2])
	} else {
		var n1, n2, n3 int
		var err1, err2, err3 error
		shared, n1, err1 = util.Uvarint(p)
		unshared, n2, err2 = util.Uvarint(p[n1:])
		vlen, n3, err3 = util.Uvarint(p[n1+n2:])
		if err1 != nil || err2 != nil || err3 != nil {
			it.corrupt()
			return false
		}
		klo = off + n1 + n2 + n3
	}
	if shared > uint64(len(it.key)) || unshared > uint64(it.kend-klo) || vlen > uint64(it.limit-it.vpos) {
		it.corrupt()
		return false
	}
	khi := klo + int(unshared)
	if !it.need(klo, khi) {
		return false
	}
	it.key = append(it.key[:shared], it.data[klo:khi]...)
	it.vlo, it.vhi = it.vpos, it.vpos+int(vlen)
	it.kpos, it.vpos = khi, it.vhi
	return true
}

// Seek positions at the first entry with key >= target (by cmp; nil means
// bytes.Compare). It binary-searches the runs' first keys — probes, faulted
// as a point read whatever the policy — then walks the run it lands in.
func (it *Iter) Seek(target []byte, cmp func(a, b []byte) int) {
	if cmp == nil {
		cmp = bytes.Compare
	}
	if it.err != nil {
		it.valid = false
		return
	}
	// Find the last run whose first key < target.
	lo, hi := 0, it.nRestarts-1
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if !it.openRun(mid, FaultPoint) || !it.record() {
			return
		}
		if cmp(it.key, target) < 0 {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	it.before(lo)
	for {
		it.Next()
		if !it.valid || cmp(it.key, target) >= 0 {
			return
		}
	}
}
