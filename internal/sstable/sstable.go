// Package sstable implements the Sorted String Table files that form the
// LSM-tree's storage component: data blocks holding internal-key/value
// entries, one bloom filter block, an index block mapping separator keys to
// data-block handles, and a fixed footer. The file layout follows LevelDB;
// the blocks are package block's, which keep a restart run's keys apart from
// its values. Keys inside a table are internal keys ordered by
// util.CompareInternal.
package sstable

import (
	"bytes"
	"fmt"
	"sync"

	"cachekv/internal/block"
	"cachekv/internal/blockcache"
	"cachekv/internal/bloom"
	"cachekv/internal/hw"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

const (
	// TargetBlockSize is the uncompressed data block size threshold.
	TargetBlockSize = 4 << 10
	footerLen       = 40
	tableMagic      = 0xdb4775248b80fb57
)

// handle locates a block within the file.
type handle struct{ offset, length uint64 }

func (h handle) encode(dst []byte) []byte {
	dst = util.PutUvarint(dst, h.offset)
	return util.PutUvarint(dst, h.length)
}

// decodeHandle reads the handle at c and checks it against the table file: a
// handle is believed only once its extent is known to lie inside the file, so
// what it later sizes or addresses needs no check of its own.
func (r *Reader) decodeHandle(c *util.Cursor) (handle, error) {
	h := handle{c.Uvarint(), c.Uvarint()}
	if c.Err() != nil || !util.InExtent(h.offset, h.length, r.f.Size()) {
		return handle{}, util.ErrCorrupt
	}
	return h, nil
}

// indexHandle decodes the value of an index-block entry.
func (r *Reader) indexHandle(v []byte) (handle, error) {
	c := util.NewCursor(v)
	return r.decodeHandle(&c)
}

// Writer builds one SSTable into a pmemfs file. Entries must be added in
// ascending internal-key order.
type Writer struct {
	w       *pmemfs.Writer
	th      *hw.Thread
	data    *block.Builder
	index   *block.Builder
	filter  *bloom.Filter
	hashes  []uint32 // bloom hashes of the user keys, for the filter
	pending bool     // an index entry awaits the next block's first key
	pendKey []byte   // last key of the finished block; reused block to block
	pendH   handle
	hbuf    []byte // pendH's encoding, reused index entry to index entry
	first   []byte
	last    []byte
	count   int
	err     error
	// The finished filter and index blocks, kept past Finish for Reader.
	filterData, indexData []byte
}

// NewWriter wraps a pmemfs writer. th is the thread charged for the I/O.
func NewWriter(w *pmemfs.Writer, th *hw.Thread) *Writer {
	t := &Writer{
		w:      w,
		th:     th,
		data:   block.NewBuilder(),
		index:  block.NewBuilder(),
		filter: bloom.New(10),
	}
	t.data.SetSkew(skewAt(w.Addr()))
	return t
}

// skewAt is where a block at PMem address addr starts within its cache line:
// the writer builds each data block for the skew it will lie at, and every
// reader decodes it, copied or in place, at that skew. The index block is
// built and read at skew 0 — it is only ever read resident.
func skewAt(addr uint64) int { return int(addr % block.LineSize) }

// Add appends an internal key and value.
func (t *Writer) Add(ikey util.InternalKey, value []byte) error {
	if t.err != nil {
		return t.err
	}
	if t.pending {
		// The separator only needs to sort >= last block's keys and < this
		// key; using the last key verbatim is always correct.
		t.addIndexEntry()
	}
	if t.first == nil {
		t.first = append([]byte(nil), ikey...)
	}
	t.last = append(t.last[:0], ikey...)
	t.hashes = append(t.hashes, bloom.Hash(ikey.UserKey()))
	t.data.Add(ikey, value)
	t.count++
	if t.data.EstimatedSize() >= TargetBlockSize {
		t.flushBlock()
	}
	return t.err
}

func (t *Writer) flushBlock() {
	if t.data.Empty() {
		return
	}
	contents := t.data.Finish()
	off := t.w.Offset()
	if err := t.w.Append(t.th, contents); err != nil {
		t.err = err
		return
	}
	t.pendH = handle{off, uint64(len(contents))}
	t.pendKey = append(t.pendKey[:0], t.last...)
	t.pending = true
	t.data.Reset()
	t.data.SetSkew(skewAt(t.w.Addr()))
}

// addIndexEntry adds the pending index entry, which the index builder copies.
func (t *Writer) addIndexEntry() {
	t.hbuf = t.pendH.encode(t.hbuf[:0])
	t.index.Add(t.pendKey, t.hbuf)
	t.pending = false
}

// Finish flushes remaining blocks, writes the filter, index and footer, and
// seals the file. It returns the number of entries and the table's key range.
func (t *Writer) Finish() (count int, smallest, largest util.InternalKey, err error) {
	if t.err != nil {
		return 0, nil, nil, t.err
	}
	t.flushBlock()
	if t.pending {
		t.addIndexEntry()
	}
	// Filter block.
	t.filterData = t.filter.BuildHashes(t.hashes)
	filterH := handle{t.w.Offset(), uint64(len(t.filterData))}
	if err := t.w.Append(t.th, t.filterData); err != nil {
		return 0, nil, nil, err
	}
	// Index block.
	t.indexData = t.index.Finish()
	indexH := handle{t.w.Offset(), uint64(len(t.indexData))}
	if err := t.w.Append(t.th, t.indexData); err != nil {
		return 0, nil, nil, err
	}
	// Footer: filter handle, index handle, padding, magic.
	footer := make([]byte, 0, footerLen)
	footer = filterH.encode(footer)
	footer = indexH.encode(footer)
	for len(footer) < footerLen-8 {
		footer = append(footer, 0)
	}
	footer = util.PutFixed64(footer, tableMagic)
	if err := t.w.Append(t.th, footer); err != nil {
		return 0, nil, nil, err
	}
	if err := t.w.Finish(t.th); err != nil {
		return 0, nil, nil, err
	}
	return t.count, t.first, t.last, nil
}

// Reader opens the table a successful Finish sealed, on f, from the filter and
// index blocks the writer still holds: the process that wrote a table need
// not read ≈ 30 KB of it back from PMem on the table's first lookup. NewReader
// opens the same table from media.
func (t *Writer) Reader(f *pmemfs.File) *Reader {
	return &Reader{f: f, filter: t.filterData, index: t.indexData}
}

// Abort abandons the table file.
func (t *Writer) Abort() { t.w.Abort(t.th) }

// EstimatedSize returns bytes written so far plus the buffered block.
func (t *Writer) EstimatedSize() uint64 {
	return t.w.Offset() + uint64(t.data.EstimatedSize())
}

// Reader serves lookups and scans from one sealed SSTable. Data-block reads
// probe a shared DRAM block cache owned by the LSM tree (LevelDB keeps an
// 8 MiB one): cached hits cost a DRAM access instead of PMem media reads,
// and because the cache outlives the Reader, hot blocks survive reader churn
// across compactions. Only scan iterators fill it, on a block's second touch
// (seekBlock). On a miss a Get searches the block in place on PMem, a scan
// iterator walks it in place, and a compaction iterator reads it whole into
// the one buffer it reuses block to block, without caching it (readBlock). A
// nil cache disables caching.
type Reader struct {
	f      *pmemfs.File
	index  []byte
	filter []byte

	cache   *blockcache.Cache
	cacheID uint64 // file number namespacing this reader's blocks
}

// SetCache attaches the shared block cache; id must be unique per file (the
// LSM tree uses the file number, which is never reused).
func (r *Reader) SetCache(c *blockcache.Cache, id uint64) {
	r.cache = c
	r.cacheID = id
}

// skew is the cache-line offset the data block at h was built for.
func (r *Reader) skew(h handle) int { return skewAt(r.f.Addr(h.offset)) }

// readBlock returns the whole data block at h: the cached copy, used where it
// lies, when there is one, else the block read out of PMem into *buf (grown
// when it is too small, then valid until *buf is next written) and not cached
// — a compaction's inputs are deleted when its job ends, so their blocks
// would only evict ones that are still read. Compaction iterators use it:
// they walk every entry of the block, so one DRAM copy is the cheapest way to
// read it, and reusing the buffer makes that copy cost no allocation.
func (r *Reader) readBlock(th *hw.Thread, h handle, buf *[]byte) ([]byte, error) {
	if b, ok := r.cache.Get(blockcache.Key{File: r.cacheID, Offset: h.offset}); ok {
		th.ChargeDRAM(1)
		return b, nil
	}
	b := util.Sized(*buf, int(h.length))
	*buf = b
	if err := r.f.ReadAt(th, h.offset, b); err != nil {
		return nil, err
	}
	return b, nil
}

// copyBlock reads the whole block at h into a fresh buffer.
func (r *Reader) copyBlock(th *hw.Thread, h handle) ([]byte, error) {
	contents := make([]byte, h.length)
	if err := r.f.ReadAt(th, h.offset, contents); err != nil {
		return nil, err
	}
	return contents, nil
}

const (
	lineSize = block.LineSize
	// windowBytes is the largest block searched in place. Blocks close
	// at TargetBlockSize plus one entry, so twice that covers all but blocks
	// holding an outsized value; those are read whole.
	windowBytes = 2 * TargetBlockSize
)

// window is a lazily faulted view of one data block on PMem: the block.Backing
// of an in-place search or walk. Need reads each 64 B cache line the decoder
// touches at most once, through pmemfs (so the LLC and device models charge
// exactly the lines used), and the rest of the block is never loaded.
type window struct {
	f    *pmemfs.File
	th   *hw.Thread
	off  uint64 // file offset of the block
	n    int    // block length
	skew int    // PMem address of the block's first byte, mod lineSize
	have [windowBytes / lineSize / 64]uint64
	buf  [windowBytes]byte
}

// open points the window at the block at h. It reports false when the block,
// placed at its cache-line offset, does not fit the window.
func (w *window) open(f *pmemfs.File, th *hw.Thread, h handle) bool {
	skew := skewAt(f.Addr(h.offset))
	if h.length == 0 || h.length > windowBytes || uint64(skew)+h.length > windowBytes { // first bound keeps the sum from wrapping
		return false
	}
	w.f, w.th, w.off, w.n, w.skew = f, th, h.offset, int(h.length), skew
	w.have = [len(w.have)]uint64{}
	return true
}

// Need implements block.Backing over the cache lines covering [lo, hi).
func (w *window) Need(lo, hi int) error {
	for line := (lo + w.skew) / lineSize; line <= (hi-1+w.skew)/lineSize; line++ {
		word, bit := &w.have[line/64], uint64(1)<<(line%64)
		if *word&bit != 0 {
			continue
		}
		a, b := line*lineSize-w.skew, (line+1)*lineSize-w.skew
		if a < 0 {
			a = 0
		}
		if b > w.n {
			b = w.n
		}
		if err := w.f.ReadAt(w.th, w.off+uint64(a), w.buf[a:b]); err != nil {
			return err
		}
		*word |= bit
	}
	return nil
}

// getScratch is the working set of one foreground read — a Get, or a table
// iterator from NewIter to Close — pooled so that a point read allocates
// nothing but the value it returns and a scan no window per table.
type getScratch struct {
	idx, data block.Iter
	win       window
}

var scratchPool = sync.Pool{New: func() any { return new(getScratch) }}

// seekBlock points sc.data at the data block at h for a foreground read. The
// DRAM block cache is probed first. On a miss the block is read where it
// lies: PMem is byte-addressable, and the entries a Get or a short scan
// touches cost a few cache lines where a copy of the block costs all
// sixty-four. policy is what the in-place decoder faults ahead of itself, and
// it also decides who may fill the cache:
//   - A Get (block.FaultPoint) never does. Copying the block would put all
//     sixty-four lines on this one read to save lines on later ones, and the
//     LLC already keeps the few lines a repeated Get reads.
//   - A table iterator (block.FaultWalk) asks the cache's Admit: a block the
//     cache saw miss recently shows reuse, so its second touch copies it into
//     the cache and later walks hit DRAM.
//
// A block too large for the in-place window is copied whole and not cached.
func (r *Reader) seekBlock(th *hw.Thread, h handle, sc *getScratch, policy block.Fault) error {
	key := blockcache.Key{File: r.cacheID, Offset: h.offset}
	if b, ok := r.cache.Get(key); ok {
		th.ChargeDRAM(1)
		return sc.data.Reset(b, r.skew(h))
	}
	if policy == block.FaultWalk && r.cache.Admit(key) {
		contents, err := r.copyBlock(th, h)
		if err != nil {
			return err
		}
		r.cache.Put(key, contents)
		return sc.data.Reset(contents, r.skew(h))
	}
	if sc.win.open(r.f, th, h) {
		r.cache.NoteDirect()
		return sc.data.ResetLazy(sc.win.buf[:h.length], sc.win.skew, &sc.win, policy)
	}
	contents, err := r.copyBlock(th, h)
	if err != nil {
		return err
	}
	return sc.data.Reset(contents, r.skew(h))
}

// NewReader opens a table, reading its footer, filter and index blocks. The
// footer carries a magic and no CRC: every failure here is util.ErrCorrupt.
func NewReader(f *pmemfs.File, th *hw.Thread) (*Reader, error) {
	size := f.Size()
	if size < footerLen {
		return nil, fmt.Errorf("sstable: file too small (%d bytes): %w", size, util.ErrCorrupt)
	}
	footer := make([]byte, footerLen)
	if err := f.ReadAt(th, size-footerLen, footer); err != nil {
		return nil, err
	}
	magic := util.NewCursor(footer[footerLen-8:])
	if magic.U64() != tableMagic {
		return nil, fmt.Errorf("sstable: bad magic: %w", util.ErrCorrupt)
	}
	r := &Reader{f: f}
	c := util.NewCursor(footer[:footerLen-8])
	filterH, ferr := r.decodeHandle(&c)
	indexH, ierr := r.decodeHandle(&c)
	if ferr != nil || ierr != nil {
		return nil, fmt.Errorf("sstable: footer handle outside the %d-byte file: %w", size, util.ErrCorrupt)
	}
	var err error
	if r.filter, err = r.copyBlock(th, filterH); err != nil {
		return nil, err
	}
	if r.index, err = r.copyBlock(th, indexH); err != nil {
		return nil, err
	}
	return r, nil
}

// icmp orders internal keys. Keys decoded from a block may be garbage (a
// retired table's extent can be reused under a live Reader), so ones too
// short to carry a trailer fall back to bytewise order rather than panic.
func icmp(a, b []byte) int {
	if len(a) < 8 || len(b) < 8 {
		return bytes.Compare(a, b)
	}
	return util.CompareInternal(a, b)
}

// Get looks up the freshest entry for ikey's user key at or below ikey's
// sequence number. It returns the value, the entry's sequence number and
// kind, and whether anything was found.
func (r *Reader) Get(th *hw.Thread, ikey util.InternalKey) ([]byte, uint64, util.ValueKind, bool, error) {
	if !bloom.MayContain(r.filter, ikey.UserKey()) {
		return nil, 0, 0, false, nil
	}
	sc := scratchPool.Get().(*getScratch)
	defer scratchPool.Put(sc)
	if err := sc.idx.Reset(r.index, 0); err != nil {
		return nil, 0, 0, false, err
	}
	sc.idx.Seek(ikey, icmp)
	if !sc.idx.Valid() {
		return nil, 0, 0, false, sc.idx.Err()
	}
	h, err := r.indexHandle(sc.idx.Value())
	if err != nil {
		return nil, 0, 0, false, err
	}
	if err := r.seekBlock(th, h, sc, block.FaultPoint); err != nil {
		return nil, 0, 0, false, err
	}
	it := &sc.data
	it.Seek(ikey, icmp)
	if !it.Valid() {
		return nil, 0, 0, false, it.Err()
	}
	found := util.InternalKey(it.Key())
	if !found.Valid() {
		return nil, 0, 0, false, util.ErrCorrupt
	}
	// Range-tombstone entries are not point versions: their value is the
	// span's end key, never a user value. Step past any that share the
	// sought user key; coverage is applied by the tree from file metadata.
	for found.Kind() == util.KindRangeDel && string(found.UserKey()) == string(ikey.UserKey()) {
		it.Next()
		if !it.Valid() {
			return nil, 0, 0, false, it.Err()
		}
		if found = util.InternalKey(it.Key()); !found.Valid() {
			return nil, 0, 0, false, util.ErrCorrupt
		}
	}
	if string(found.UserKey()) != string(ikey.UserKey()) {
		return nil, 0, 0, false, nil
	}
	val := append([]byte(nil), it.Value()...)
	if err := it.Err(); err != nil {
		return nil, 0, 0, false, err
	}
	return val, found.Seq(), found.Kind(), true, nil
}

// Iter is a two-level iterator over the whole table. It borrows a getScratch
// (index and data block iterators, in-place window) from the pool; Close
// hands it back, after which the iterator, its Key and its Value are dead.
type Iter struct {
	r     *Reader
	th    *hw.Thread
	whole bool        // read whole blocks (compaction) instead of reading them in place
	blk   []byte      // a whole block read on a cache miss; reused block to block
	sc    *getScratch // nil once closed
	ok    bool        // sc.data is on a loaded block
	err   error
}

// NewIter returns an unpositioned foreground iterator. It loads a data block
// in place as Get does (seekBlock): a scan that leaves a block after a few
// entries pays for those entries' cache lines, not for sixty-four. Unlike a
// Get it copies a block into the cache on the block's second touch, and a
// block touched once does not evict one that is reused. Where Get faults key
// records one by one, a walk faults each run's key area whole
// (block.FaultWalk), so that its reads move through the block in address
// order.
func (r *Reader) NewIter(th *hw.Thread) (*Iter, error) { return r.newIter(th, false) }

// NewCompactionIter returns an unpositioned iterator that reads every block
// it reaches whole and leaves the cache as it is (readBlock): a cached block is
// decoded where it lies, and a missed one is read out of PMem into the one
// buffer the iterator owns, which the next miss overwrites. A compaction reads
// every entry of its inputs once, so whole blocks are what it uses, and a
// table costs it no allocation per block. Key and Value are valid until the
// iterator moves, as for every Iter.
func (r *Reader) NewCompactionIter(th *hw.Thread) (*Iter, error) { return r.newIter(th, true) }

func (r *Reader) newIter(th *hw.Thread, whole bool) (*Iter, error) {
	it := new(Iter)
	if err := r.ResetIter(it, th); err != nil {
		return nil, err
	}
	it.whole = whole
	return it, nil
}

// ResetIter closes it and makes it what NewIter returns, keeping nothing of
// its last walk: an iterator re-targeted table after table allocates nothing.
func (r *Reader) ResetIter(it *Iter, th *hw.Thread) error {
	it.Close()
	sc := scratchPool.Get().(*getScratch)
	if err := sc.idx.Reset(r.index, 0); err != nil {
		scratchPool.Put(sc)
		return err
	}
	*it = Iter{r: r, th: th, sc: sc}
	return nil
}

// Close returns the iterator's scratch to the pool. Idempotent.
func (it *Iter) Close() {
	if it.sc != nil {
		it.Err() // keep a pending data-block error past the scratch
		scratchPool.Put(it.sc)
		it.sc, it.ok = nil, false
	}
}

// loadData points sc.data at the block under the index cursor. Past the last
// block, or on an index or block error (kept for Err), the iterator is left
// invalid.
func (it *Iter) loadData() {
	it.ok = false
	if !it.sc.idx.Valid() {
		it.fail(it.sc.idx.Err())
		return
	}
	h, err := it.r.indexHandle(it.sc.idx.Value())
	if err == nil {
		if it.whole {
			var contents []byte
			if contents, err = it.r.readBlock(it.th, h, &it.blk); err == nil {
				err = it.sc.data.Reset(contents, it.r.skew(h))
			}
		} else {
			err = it.r.seekBlock(it.th, h, it.sc, block.FaultWalk)
		}
	}
	if err != nil {
		it.fail(err)
		return
	}
	it.ok = true
}

// fail ends the walk, keeping the first error.
func (it *Iter) fail(err error) {
	it.ok = false
	if it.err == nil {
		it.err = err
	}
}

// SeekToFirst positions at the table's first entry.
func (it *Iter) SeekToFirst() {
	it.sc.idx.SeekToFirst()
	if it.loadData(); it.ok {
		it.sc.data.SeekToFirst()
	}
	it.skipForward()
}

// Seek positions at the first entry >= ikey.
func (it *Iter) Seek(ikey util.InternalKey) {
	it.sc.idx.Seek(ikey, icmp)
	if it.loadData(); it.ok {
		it.sc.data.Seek(ikey, icmp)
	}
	it.skipForward()
}

// Next advances to the following entry.
func (it *Iter) Next() {
	if !it.ok {
		return
	}
	it.sc.data.Next()
	it.skipForward()
}

// skipForward moves to the first entry of the next block while the current
// one is exhausted; a block that failed ends the walk with its error.
func (it *Iter) skipForward() {
	for it.ok && !it.sc.data.Valid() {
		if err := it.sc.data.Err(); err != nil {
			it.fail(err)
			return
		}
		it.sc.idx.Next()
		if it.loadData(); it.ok {
			it.sc.data.SeekToFirst()
		}
	}
}

// Valid reports whether the iterator is on an entry.
func (it *Iter) Valid() bool { return it.ok && it.sc.data.Valid() }

// Err returns the error that ended the walk, if one did: a corrupt or
// unreadable index or data block, or a value whose lines could not be read.
func (it *Iter) Err() error {
	if it.ok && it.sc.data.Err() != nil {
		it.fail(it.sc.data.Err())
	}
	return it.err
}

// Key returns the current internal key.
func (it *Iter) Key() util.InternalKey { return util.InternalKey(it.sc.data.Key()) }

// Value returns the current value. Like Key it is valid until the iterator
// moves: an in-place block's bytes live in the scratch window.
func (it *Iter) Value() []byte { return it.sc.data.Value() }
