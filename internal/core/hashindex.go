package core

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"slices"
	"sync/atomic"

	"cachekv/internal/util"
)

// The global index maps every user key merged out of the flushed tables to
// its freshest version there: the internal-key trailer (sequence and kind)
// and the ImmZone address of the entry. Engine.Get is its only reader and
// mergeInto its only writer, and neither needs key order, so it is an
// open-addressing hash table whose Get reads one cache line.
//
// A key lives in the first bucket with a free slot from its home bucket on,
// and no key ever leaves, so a probe ends at the first free slot it meets.
// The keys themselves are kept in an arena only the writer reads. A slot is
// trusted only once the full key matched: the writer compares it from the
// arena, a Get compares the entry it fetches.
type hashIndex struct {
	hash func([]byte) uint64
	tab  atomic.Pointer[hashTable]
	keys []byte       // the arena: each key as a uvarint length, then its bytes; writer-only
	n    atomic.Int64 // keys held; the spill reads it to size the next index
}

// hashTable is one generation of the index's buckets. Growth builds a new one
// and publishes it; the writer never changes a table after replacing it.
type hashTable struct {
	buckets []bucket
	refs    []uint64 // per slot: where its key starts in the arena; writer-only
	mask    uint64
}

// bucket is one 64 B line of four slots, the line of both the global index
// and the active-key table (activetable.go). Word 0 holds the line's version
// in its low 16 bits — odd while a writer holds the line, bumped again when
// it is done, so a reader that saw the same even version before and after
// copying the line saw no torn slot — and the slots' 12-bit fingerprints
// above it (0: free). A reader stalled across 2^15 changes of its line would
// not notice a torn slot; a torn (trailer, address) pair could make a Get
// skip the key's version for an older one. The active-key table versions its
// lines in the low 12 bits only and keeps 4 bits of its own above them
// (activeVer). Words 1–4 are the slots' trailers, and words 5–7 their 48-bit
// addresses, packed: a PMem address is below 2^48.
type bucket [8]atomic.Uint64

const (
	bucketSlots   = 4
	bucketKeys    = 3 // keys per bucket, on average, before the index grows
	minBuckets    = 16
	fpBits        = 12
	fpMask        = 1<<fpBits - 1
	indexVer      = 1<<16 - 1 // the global index's version bits in word 0
	addrMask      = 1<<48 - 1
	hashIndexSeed = 0xC0117EC7
)

// seededHash is the index's hash: util.Hash64 under a fixed seed.
func seededHash(key []byte) uint64 { return util.Mix64(util.Hash64(key) ^ hashIndexSeed) }

// newHashIndex returns an empty index that places keys by hash, sized so that
// upserting n keys does not grow it.
func newHashIndex(hash func([]byte) uint64, n int) *hashIndex {
	x := &hashIndex{hash: hash}
	x.tab.Store(newHashTable(n))
	return x
}

// newHashTable returns an empty table that holds n keys without growing.
func newHashTable(n int) *hashTable {
	nb := minBuckets
	for bucketKeys*nb < n {
		nb *= 2
	}
	return &hashTable{
		buckets: make([]bucket, nb),
		refs:    make([]uint64, nb*bucketSlots),
		mask:    uint64(nb - 1),
	}
}

// fingerprint is a key's tag in its bucket, never the free mark 0.
func fingerprint(h uint64) uint64 { return max(h>>(64-fpBits), 1) }

// slotAt returns slot s of a copied line: its fingerprint (0: free), trailer and
// address.
func slotAt(w *[8]uint64, s int) (fp, trailer, addr uint64) {
	i, o := 5+48*s/64, 48*s%64
	addr = w[i] >> o
	if o > 16 {
		addr |= w[i+1] << (64 - o)
	}
	return w[0] >> (16 + fpBits*s) & fpMask, w[1+s], addr & addrMask
}

// get probes for key. It calls line once for every bucket line it reads, and
// try with every slot whose fingerprint is key's, in probe order, until try
// takes one; try must check the key itself.
func (x *hashIndex) get(key []byte, line func(), try func(trailer, addr uint64) bool) {
	t := x.tab.Load()
	h := x.hash(key)
	fp := fingerprint(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		line()
		var w [8]uint64
		t.buckets[i].read(&w)
		for s := range bucketSlots {
			f, trailer, addr := slotAt(&w, s)
			if f == 0 {
				return
			}
			if f == fp && try(trailer, addr) {
				return
			}
		}
	}
}

// read copies the line into w, again until no write overlapped the copy.
func (b *bucket) read(w *[8]uint64) {
	for !b.tryRead(w) {
		runtime.Gosched() // a writer holds the line
	}
}

// tryRead is read's one attempt: it reports whether no write overlapped it.
func (b *bucket) tryRead(w *[8]uint64) bool {
	b.copyTo(w)
	return w[0]&1 == 0 && b[0].Load() == w[0]
}

// copyTo loads the line's words into w as they are: whole only while the
// caller holds the line.
func (b *bucket) copyTo(w *[8]uint64) {
	for j := range w {
		w[j] = b[j].Load()
	}
}

// set publishes slot s's fingerprint, trailer and address as one change of the
// line.
func (b *bucket) set(s int, fp, trailer, addr uint64) {
	b.unlock(b.put(b.lock(), s, fp, trailer, addr), indexVer)
}

// lock takes the line for one writer: a CAS moves its version from even to
// odd, so that writers of several cores share a table, and readers retry
// until it is even again. It returns word 0 as locked.
func (b *bucket) lock() uint64 {
	for {
		if w0, ok := b.tryLock(); ok {
			return w0
		}
		runtime.Gosched()
	}
}

// tryLock is lock's one attempt; it fails while another writer holds the line.
func (b *bucket) tryLock() (uint64, bool) {
	w0 := b[0].Load()
	return w0 + 1, w0&1 == 0 && b[0].CompareAndSwap(w0, w0+1)
}

// put writes slot s of a line the caller locked with word 0 at w0, and returns
// word 0 as it now stands.
func (b *bucket) put(w0 uint64, s int, fp, trailer, addr uint64) uint64 {
	b[1+s].Store(trailer)
	i, o := 5+48*s/64, 48*s%64
	b[i].Store(b[i].Load()&^(addrMask<<o) | addr<<o)
	if o > 16 {
		b[i+1].Store(b[i+1].Load()&^(addrMask>>(64-o)) | addr>>(64-o))
	}
	w0 = w0&^(fpMask<<(16+fpBits*s)) | fp<<(16+fpBits*s)
	b[0].Store(w0)
	return w0
}

// unlock publishes the caller's changes: the version, the bits of word 0 that
// ver masks, moves on to even.
func (b *bucket) unlock(w0, ver uint64) { b[0].Store(w0&^ver | (w0+1)&ver) }

// upsert records (trailer, addr) as key's version unless the index holds key
// at a sequence at or above trailer's, so that on equal sequences the version
// upserted first stays. It returns the lines it touched for the caller to
// charge: each bucket it probed, each arena line it read to compare a key,
// and, when the upsert grew the index, one per key moved.
func (x *hashIndex) upsert(key []byte, trailer, addr uint64) (lines int) {
	if x.n.Load() >= bucketKeys*int64(len(x.tab.Load().buckets)) {
		lines = x.grow()
	}
	t := x.tab.Load()
	h := x.hash(key)
	fp := fingerprint(h)
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		lines++
		b := &t.buckets[i]
		var w [8]uint64
		b.read(&w)
		for s := range bucketSlots {
			ref := &t.refs[int(i)*bucketSlots+s]
			switch f, cur, _ := slotAt(&w, s); f {
			case 0:
				*ref = x.own(key)
				x.n.Add(1)
				b.set(s, fp, trailer, addr)
				return lines
			case fp:
				k, read := x.keyAt(*ref)
				lines += read
				if bytes.Equal(k, key) {
					if trailer>>8 > cur>>8 {
						b.set(s, fp, trailer, addr)
					}
					return lines
				}
			}
		}
	}
}

// grow moves every key into a table of twice the buckets and publishes it; a
// reader still on the old table reads it as it was. It returns the keys moved.
func (x *hashIndex) grow() (moved int) {
	old := x.tab.Load()
	t := newHashTable(2 * bucketKeys * len(old.buckets))
	for i := range old.buckets {
		var w [8]uint64
		old.buckets[i].read(&w)
		for s := range bucketSlots {
			f, trailer, addr := slotAt(&w, s)
			if f == 0 {
				break
			}
			ref := old.refs[i*bucketSlots+s]
			k, _ := x.keyAt(ref)
			t.place(x.hash(k), ref, trailer, addr)
			moved++
		}
	}
	x.tab.Store(t)
	x.keys = slices.Grow(x.keys, len(x.keys))
	return moved
}

// place puts a key known to be absent into the first free slot from its home
// bucket; t is not yet published.
func (t *hashTable) place(h, ref, trailer, addr uint64) {
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		b := &t.buckets[i]
		for s := range bucketSlots {
			if b[0].Load()>>(16+fpBits*s)&fpMask == 0 {
				t.refs[int(i)*bucketSlots+s] = ref
				b.set(s, fingerprint(h), trailer, addr)
				return
			}
		}
	}
}

// own appends key to the arena and returns where it starts. The first key
// sizes the arena for as many keys of its length as the table holds, and
// growth doubles it with the table, so that it is not copied key by key.
func (x *hashIndex) own(key []byte) uint64 {
	ref := uint64(len(x.keys))
	if x.keys == nil {
		x.keys = make([]byte, 0, bucketKeys*len(x.tab.Load().buckets)*(len(key)+1))
	}
	x.keys = binary.AppendUvarint(x.keys, uint64(len(key)))
	x.keys = append(x.keys, key...)
	return ref
}

// keyAt returns the arena's key at ref and the 64 B lines it spans.
func (x *hashIndex) keyAt(ref uint64) (key []byte, lines int) {
	n, w := binary.Uvarint(x.keys[ref:])
	start := ref + uint64(w)
	end := start + n
	return x.keys[start:end], int((end-1)/cacheLine - ref/cacheLine + 1)
}
