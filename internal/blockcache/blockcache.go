// Package blockcache provides the shared, sharded, byte-charged LRU block
// cache that fronts SSTable data-block reads. One cache is owned by the LSM
// tree and handed to every sstable.Reader, so hot blocks survive reader
// churn across compactions and concurrent lookups spread over independent
// shard locks instead of serializing on one mutex.
//
// A read that misses does not have to fill the cache: SSTables live on
// byte-addressable PMem, so the reader can search or walk the block in place
// and leave the cache alone. Only scans fill it. A point read never does: it
// reads the few lines it searches in place, and the CPU cache keeps those. A
// compaction copies its input blocks without caching them. Admit decides which
// of a scan's misses are worth a fill — the second one for the same block
// within a short window of recent misses — so blocks that are touched once
// never evict blocks that are reused.
//
// Values are the immutable decoded block contents; callers must not mutate
// returned slices. Capacity is charged in bytes (value length plus a fixed
// per-entry overhead), the way LevelDB's block cache charges its LRU.
package blockcache

import (
	"sync"
	"sync/atomic"
)

// Key identifies one block: the owning file's number and the block's offset
// within it. File numbers are never reused by the LSM tree, so a key can
// never alias a block from a deleted file's successor.
type Key struct {
	File   uint64
	Offset uint64
}

// Stats is a point-in-time snapshot of cache effectiveness counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Bytes     int64 // bytes currently charged
	Entries   int64
	Admitted  int64 // scan misses Admit chose to fill; a Get is never admitted
	Direct    int64 // foreground-read misses (Get and scan) served in place on PMem, without a fill
}

// HitRatio returns hits/(hits+misses), or 0 before any lookups.
func (s Stats) HitRatio() float64 {
	if t := s.Hits + s.Misses; t > 0 {
		return float64(s.Hits) / float64(t)
	}
	return 0
}

// entryOverhead approximates the per-entry bookkeeping cost (map slot, list
// node, key) charged against capacity on top of the block bytes.
const entryOverhead = 64

// entry is one resident block on a shard's intrusive LRU list.
type entry struct {
	key        Key
	value      []byte
	prev, next *entry
}

// shard is one independently locked slice of the cache.
type shard struct {
	mu       sync.Mutex
	capacity int64
	used     int64
	table    map[Key]*entry
	head     entry // sentinel: head.next is MRU, head.prev is LRU
	evicted  int64
}

func (s *shard) init(capacity int64) {
	s.capacity = capacity
	s.table = make(map[Key]*entry)
	s.head.next = &s.head
	s.head.prev = &s.head
}

func (s *shard) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
}

func (s *shard) pushFront(e *entry) {
	e.next = s.head.next
	e.prev = &s.head
	s.head.next.prev = e
	s.head.next = e
}

// admitSlotBytes sets the recent-miss window: one fingerprint slot per this
// many bytes of capacity (256 slots for the default 8 MiB cache, an eighth of
// the blocks it holds). The window is deliberately short. A block that misses
// twice within a few hundred scan misses is hot enough to earn its DRAM copy; a
// longer memory starts admitting the uniform tail, whose fills cost sixteen
// XPLine reads each and evict blocks that would have hit.
const admitSlotBytes = 32 << 10

// Cache is the shared block cache.
type Cache struct {
	shards []shard
	mask   uint64

	// recent is a direct-mapped table of the fingerprints of blocks that
	// missed lately; a later miss that lands on another block's slot
	// overwrites it, which is how the window forgets.
	recent     []atomic.Uint64
	recentMask uint64

	hits     atomic.Int64
	misses   atomic.Int64
	admitted atomic.Int64
	direct   atomic.Int64
}

// New builds a cache of capacityBytes spread over shardCount shards
// (rounded up to a power of two; 16 matches the default geometry). A
// non-positive capacity returns nil, which every method tolerates — engines
// use that to disable caching.
func New(capacityBytes int64, shardCount int) *Cache {
	if capacityBytes <= 0 {
		return nil
	}
	if shardCount < 1 {
		shardCount = 16
	}
	n := 1
	for n < shardCount {
		n <<= 1
	}
	slots := int64(1)
	for slots*admitSlotBytes < capacityBytes {
		slots <<= 1
	}
	c := &Cache{
		shards: make([]shard, n), mask: uint64(n - 1),
		recent: make([]atomic.Uint64, slots), recentMask: uint64(slots - 1),
	}
	per := capacityBytes / int64(n)
	if per < 1 {
		per = 1
	}
	for i := range c.shards {
		c.shards[i].init(per)
	}
	return c
}

// hash mixes both words of the key: offsets are block-aligned-ish and file
// numbers small.
func hash(k Key) uint64 {
	h := k.File*0x9E3779B97F4A7C15 ^ k.Offset*0xBF58476D1CE4E5B9
	return h ^ h>>29
}

func (c *Cache) shardFor(k Key) *shard { return &c.shards[hash(k)&c.mask] }

// Admit is called by a scan after Get missed on k. It reports
// whether the block should be read whole and Put: true when k also missed
// recently (a second touch shows reuse), false when the caller should serve
// this read in place and leave the cache as it is. Lock-free; a nil cache
// never admits.
func (c *Cache) Admit(k Key) bool {
	if c == nil {
		return false
	}
	fp := hash(k) | 1 // zero means an empty slot
	slot := &c.recent[(fp>>32)&c.recentMask]
	if slot.Load() != fp {
		slot.Store(fp)
		return false
	}
	slot.Store(0)
	c.admitted.Add(1)
	return true
}

// NoteDirect counts a miss the caller served in place on PMem.
func (c *Cache) NoteDirect() {
	if c != nil {
		c.direct.Add(1)
	}
}

// Get returns the cached block for k, marking it most recently used.
func (c *Cache) Get(k Key) ([]byte, bool) {
	if c == nil {
		return nil, false
	}
	s := c.shardFor(k)
	s.mu.Lock()
	e, ok := s.table[k]
	var v []byte
	if ok {
		s.unlink(e)
		s.pushFront(e)
		v = e.value // under the lock: a concurrent Put of the same key rewrites it
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return v, true
}

// Put inserts (or refreshes) a block, evicting LRU entries until the shard
// fits. Blocks larger than a whole shard are not admitted.
func (c *Cache) Put(k Key, v []byte) {
	if c == nil {
		return
	}
	charge := int64(len(v)) + entryOverhead
	s := c.shardFor(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if charge > s.capacity {
		return
	}
	if e, ok := s.table[k]; ok {
		s.used += int64(len(v)) - int64(len(e.value))
		e.value = v
		s.unlink(e)
		s.pushFront(e)
	} else {
		e := &entry{key: k, value: v}
		s.table[k] = e
		s.pushFront(e)
		s.used += charge
	}
	for s.used > s.capacity {
		lru := s.head.prev
		if lru == &s.head {
			break
		}
		s.unlink(lru)
		delete(s.table, lru.key)
		s.used -= int64(len(lru.value)) + entryOverhead
		s.evicted++
	}
}

// EvictFile drops every block belonging to file, releasing its bytes when a
// table is deleted after compaction.
func (c *Cache) EvictFile(file uint64) {
	if c == nil {
		return
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for k, e := range s.table {
			if k.File == file {
				s.unlink(e)
				delete(s.table, k)
				s.used -= int64(len(e.value)) + entryOverhead
			}
		}
		s.mu.Unlock()
	}
}

// Stats returns cumulative hit/miss counters and current occupancy.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Hits: c.hits.Load(), Misses: c.misses.Load(),
		Admitted: c.admitted.Load(), Direct: c.direct.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Bytes += s.used
		st.Entries += int64(len(s.table))
		st.Evictions += s.evicted
		s.mu.Unlock()
	}
	return st
}
