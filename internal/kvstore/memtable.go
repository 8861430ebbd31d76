package kvstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cachekv/internal/arena"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/lsm"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// Placement selects which memory tier a memtable's persistent image lives in.
type Placement int

// Memtable placements.
const (
	// PlaceDRAM keeps the memtable only in DRAM (volatile; the engine must
	// WAL every write, as LevelDB does).
	PlaceDRAM Placement = iota
	// PlacePMem persists every entry to a PMem log as it is inserted
	// (NoveLSM / SLM-DB style in-place durability); index node updates also
	// dirty PMem cachelines.
	PlacePMem
)

// MemtableConfig describes one baseline memtable's hardware behaviour. The
// three flush disciplines reproduce the paper's Section II variants:
//
//   - FlushInstr=true (vanilla, ADR discipline): every entry's cachelines are
//     clflushed in ascending order right after the store, so adjacent lines
//     reach the XPBuffer together and combine.
//   - FlushInstr=false (the "-w/o-flush" variants on eADR): entries stay
//     dirty in the LLC until capacity eviction pushes them out in
//     LRU-shuffled order, reawakening write amplification (Ob1).
//   - SegmentBytes>0 (the "-cache" variants): entries accumulate in a pinned
//     cache segment and are flushed wholesale, in order, when it fills (Ob2's
//     mitigation).
type MemtableConfig struct {
	Machine   *hw.Machine
	Placement Placement

	FlushInstr bool
	// NodeWrites is how many index-node cachelines each insert dirties in
	// PMem (NoveLSM and SLM-DB keep their skiplist/B+-tree in PMem). Random
	// node lines are what shuffle the eviction stream in -w/o-flush mode.
	NodeWrites int
	// NodeRegion is the PMem area node writes scatter into.
	NodeRegion hw.Region
	// EntryArena is the PMem log entries are appended to (PlacePMem).
	EntryArena *arena.PArena
	// SegmentBytes activates -cache mode with pinned segments of this size.
	SegmentBytes uint64
	// Partition is the pinned cache partition for -cache mode.
	Partition cache.PartitionID
	// Seed makes the skiplist tower heights deterministic.
	Seed uint64
	// ExtraWriteNs is charged per insert for engine-specific persistent
	// bookkeeping outside this helper's scope (e.g. SLM-DB's persistent
	// allocator and validity-bitmap maintenance).
	ExtraWriteNs int64
}

// Memtable is the baseline engines' in-memory table: a concurrent skiplist
// of internal keys whose persistent image (when PMem-placed) is an append log
// in PMem. It deliberately mirrors LevelDB's MemTable API.
type Memtable struct {
	cfg  MemtableConfig
	list *skiplist.List
	size atomic.Int64
	// seal guards the PMem append cursor for -cache segment accounting.
	segMu   sync.Mutex
	segUsed uint64
	segBase uint64
	maxSeq  atomic.Uint64
}

func icmpBytes(a, b []byte) int {
	return util.CompareInternal(util.InternalKey(a), util.InternalKey(b))
}

// NewMemtable builds an empty memtable.
func NewMemtable(cfg MemtableConfig) *Memtable {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Memtable{cfg: cfg, list: skiplist.New(icmpBytes, cfg.Seed)}
}

// ApproximateSize returns the bytes inserted so far.
func (mt *Memtable) ApproximateSize() int64 { return mt.size.Load() }

// Len returns the entry count.
func (mt *Memtable) Len() int { return mt.list.Len() }

// MaxSeq returns the highest sequence number inserted.
func (mt *Memtable) MaxSeq() uint64 { return mt.maxSeq.Load() }

// EncodeEntry renders the persistent form of one entry: a length/CRC header
// so recovery can scan the log, then klen,vlen,seq,kind,key,value.
func EncodeEntry(dst []byte, ikey util.InternalKey, value []byte) []byte {
	return AppendEntry(dst, ikey.UserKey(), ikey.Trailer(), value)
}

// AppendEntry is EncodeEntry for callers that hold the user key and the packed
// seq/kind trailer separately: it encodes straight into dst (no intermediate
// body, no internal-key allocation), so a caller that pre-sizes dst with
// EntryLen pays one buffer for any number of entries.
func AppendEntry(dst, ukey []byte, trailer uint64, value []byte) []byte {
	hdr := len(dst)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // length + CRC, patched below
	dst = util.PutUvarint(dst, uint64(len(ukey)))
	dst = util.PutUvarint(dst, uint64(len(value)))
	dst = util.PutFixed64(dst, trailer)
	dst = append(dst, ukey...)
	dst = append(dst, value...)
	body := dst[hdr+8:]
	util.PutFixed32(dst[hdr:hdr], uint32(len(body)))
	util.PutFixed32(dst[hdr+4:hdr+4], util.MaskCRC(util.CRC(body)))
	return dst
}

// EntryLen is the encoded size of an entry with a klen-byte user key and a
// vlen-byte value.
func EntryLen(klen, vlen int) int {
	return 8 + util.UvarintLen(uint64(klen)) + util.UvarintLen(uint64(vlen)) + 8 + klen + vlen
}

// Entry is a view of one encoded entry. UKey and Value alias the bytes the
// view was taken of: they are valid until those bytes are overwritten, and a
// caller that keeps either past that copies it.
type Entry struct {
	UKey, Value []byte
	Trailer     uint64 // packed sequence number and kind
	Len         int    // encoded bytes the entry occupies
}

// Seq returns the entry's sequence number.
func (e Entry) Seq() uint64 { seq, _ := util.UnpackTrailer(e.Trailer); return seq }

// Kind returns the entry's value kind.
func (e Entry) Kind() util.ValueKind { _, kind := util.UnpackTrailer(e.Trailer); return kind }

// InternalKey renders the entry's internal key into dst's backing array.
func (e Entry) InternalKey(dst []byte) util.InternalKey {
	return util.PutFixed64(append(dst[:0], e.UKey...), e.Trailer)
}

// Is reports whether ik is the entry's internal key.
func (e Entry) Is(ik util.InternalKey) bool {
	return len(ik) == len(e.UKey)+8 && ik.Trailer() == e.Trailer && string(ik.UserKey()) == string(e.UKey)
}

// ViewEntry parses the encoded entry at the head of src without copying a
// byte of it. It returns util.ErrCorrupt at a torn or absent entry.
func ViewEntry(src []byte) (Entry, error) {
	c := util.NewCursor(src)
	blen, crc := uint64(c.U32()), c.U32()
	body := c.Bytes(blen)
	if len(body) == 0 || util.UnmaskCRC(crc) != util.CRC(body) {
		return Entry{}, util.ErrCorrupt
	}
	b := util.NewCursor(body)
	klen, vlen, trailer := b.Uvarint(), b.Uvarint(), b.U64()
	ukey, value := b.Bytes(klen), b.Bytes(vlen)
	if b.Err() != nil {
		return Entry{}, util.ErrCorrupt
	}
	return Entry{UKey: ukey, Value: value, Trailer: trailer, Len: 8 + int(blen)}, nil
}

// Insert adds an entry, persisting it per the configured discipline and
// charging th for every hardware event on the way.
func (mt *Memtable) Insert(th *hw.Thread, ikey util.InternalKey, value []byte) error {
	m := mt.cfg.Machine
	enc := EncodeEntry(nil, ikey, value)

	if mt.cfg.Placement == PlacePMem {
		addr, err := mt.cfg.EntryArena.Alloc(uint64(len(enc)), 8)
		if err != nil {
			return fmt.Errorf("memtable: %w", err)
		}
		th.InPhase(hw.PhaseAppend, func() {
			part := cache.DefaultPartition
			if mt.cfg.SegmentBytes > 0 {
				part = mt.cfg.Partition
			}
			m.Cache.Write(th.Clock, addr, enc, part)
		})
		switch {
		case mt.cfg.SegmentBytes > 0:
			// -cache variant: flush the pinned segment wholesale when full.
			mt.segMu.Lock()
			if mt.segUsed == 0 {
				mt.segBase = addr
			}
			mt.segUsed += uint64(len(enc))
			flushBase, flushLen := uint64(0), uint64(0)
			if mt.segUsed >= mt.cfg.SegmentBytes {
				flushBase, flushLen = mt.segBase, mt.segUsed
				mt.segUsed = 0
			}
			mt.segMu.Unlock()
			if flushLen > 0 {
				th.InPhase(hw.PhaseFlushInstr, func() {
					m.Cache.Flush(th.Clock, flushBase, int(flushLen))
				})
			}
		case mt.cfg.FlushInstr:
			th.InPhase(hw.PhaseFlushInstr, func() {
				m.Cache.FlushOpt(th.Clock, addr, len(enc))
			})
		}
		// Index nodes live in PMem too: each insert dirties a few node
		// cachelines at effectively random addresses. These tower-pointer
		// updates are not individually flushed even by the vanilla systems
		// (recovery rebuilds links from the logged entries), so they always
		// leave the cache via eviction.
		if mt.cfg.NodeWrites > 0 && mt.cfg.NodeRegion.Size > 0 {
			th.InPhase(hw.PhaseIndex, func() {
				var word [8]byte
				for i := 0; i < mt.cfg.NodeWrites; i++ {
					lines := mt.cfg.NodeRegion.Size / 64
					naddr := mt.cfg.NodeRegion.Addr + th.RNG.Uint64n(lines)*64
					m.Cache.Write(th.Clock, naddr, word[:], cache.DefaultPartition)
				}
			})
		}
	}

	// The lookup index itself. PMem-resident skiplists pay PMem latency per
	// node visit; DRAM-resident ones pay DRAM latency.
	perVisit := m.Costs.DRAMAccess
	if mt.cfg.Placement == PlacePMem {
		perVisit = m.Costs.PMemReadRand
	}
	th.InPhase(hw.PhaseIndex, func() {
		mt.list.Insert(ikey, value, func(visits int) {
			th.Clock.Advance(int64(visits) * (perVisit + m.Costs.SkiplistVisit) / 4)
		})
	})

	if mt.cfg.ExtraWriteNs > 0 {
		th.AddPhase(hw.PhaseOther, mt.cfg.ExtraWriteNs)
		th.Clock.Advance(mt.cfg.ExtraWriteNs)
	}
	mt.size.Add(int64(len(enc)))
	for {
		cur := mt.maxSeq.Load()
		if ikey.Seq() <= cur || mt.maxSeq.CompareAndSwap(cur, ikey.Seq()) {
			break
		}
	}
	return nil
}

// Get returns the freshest entry at or below seq for ukey.
func (mt *Memtable) Get(th *hw.Thread, ukey []byte, seq uint64) (value []byte, foundSeq uint64, kind util.ValueKind, ok bool) {
	m := mt.cfg.Machine
	perVisit := m.Costs.DRAMAccess
	if mt.cfg.Placement == PlacePMem {
		perVisit = m.Costs.PMemReadRand
	}
	target := util.MakeInternalKey(nil, ukey, seq, util.KindValue)
	it := mt.list.NewIterator()
	it.Seek(target, func(visits int) {
		th.Clock.Advance(int64(visits) * (perVisit + m.Costs.SkiplistVisit) / 4)
	})
	if !it.Valid() {
		return nil, 0, 0, false
	}
	found := util.InternalKey(it.Key())
	if string(found.UserKey()) != string(ukey) {
		return nil, 0, 0, false
	}
	return it.Value(), found.Seq(), found.Kind(), true
}

// FlushRemainingSegment force-flushes a partially filled -cache segment
// (called when the memtable seals).
func (mt *Memtable) FlushRemainingSegment(th *hw.Thread) {
	if mt.cfg.SegmentBytes == 0 {
		return
	}
	mt.segMu.Lock()
	base, n := mt.segBase, mt.segUsed
	mt.segUsed = 0
	mt.segMu.Unlock()
	if n > 0 {
		mt.cfg.Machine.Cache.Flush(th.Clock, base, int(n))
	}
}

// Iter adapts the memtable to the lsm.Iterator interface for flushes and
// merged scans.
type Iter struct{ it *skiplist.Iterator }

// NewIter returns an unpositioned internal-key iterator.
func (mt *Memtable) NewIter() *Iter { return &Iter{it: mt.list.NewIterator()} }

// Valid reports whether the iterator is positioned.
func (i *Iter) Valid() bool { return i.it.Valid() }

// SeekToFirst positions at the smallest internal key.
func (i *Iter) SeekToFirst() { i.it.SeekToFirst() }

// Seek positions at the first entry >= ik.
func (i *Iter) Seek(ik util.InternalKey) { i.it.Seek(ik, nil) }

// Next advances the iterator.
func (i *Iter) Next() { i.it.Next() }

// Key returns the current internal key.
func (i *Iter) Key() util.InternalKey { return util.InternalKey(i.it.Key()) }

// Value returns the current value.
func (i *Iter) Value() []byte { return i.it.Value() }

// Err is always nil: a DRAM skiplist walk cannot fail.
func (i *Iter) Err() error { return nil }

// Close is a no-op; the iterator borrows nothing.
func (i *Iter) Close() {}

var _ lsm.Iterator = (*Iter)(nil)

// RecoverEntries scans a PMem entry log from the start of region, invoking fn
// for every intact entry; it stops at the first torn entry (the durable
// prefix). Engines use it to rebuild a PMem-placed memtable after a crash. ik
// and value are valid only during the call to fn: the next entry is read into
// the same buffers.
func RecoverEntries(m *hw.Machine, region hw.Region, th *hw.Thread, fn func(ik util.InternalKey, value []byte)) uint64 {
	var off uint64
	var hdr [8]byte
	var buf, ik []byte
	for util.InExtent(off, 8, region.Size) {
		m.PMem.Read(th.Clock, region.Addr+off, hdr[:])
		h := util.NewCursor(hdr[:])
		blen := uint64(h.U32())
		if blen == 0 || !util.InExtent(off, 8+blen, region.Size) {
			break
		}
		buf = util.Sized(buf, int(8+blen))
		m.PMem.Read(th.Clock, region.Addr+off, buf)
		e, err := ViewEntry(buf)
		if err != nil {
			break
		}
		ik = e.InternalKey(ik)
		fn(ik, e.Value)
		// The arena aligned the next entry's address, not its offset.
		off = (region.Addr+off+uint64(e.Len)+7)&^7 - region.Addr
	}
	return off
}
