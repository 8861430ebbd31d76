package blockcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestNilCacheIsSafe(t *testing.T) {
	var c *Cache
	if c != New(0, 16) || New(-5, 16) != nil {
		t.Fatal("non-positive capacity must return a nil cache")
	}
	if _, ok := c.Get(Key{1, 0}); ok {
		t.Fatal("nil cache returned a hit")
	}
	c.Put(Key{1, 0}, []byte("x"))
	c.EvictFile(1)
	c.NoteDirect()
	if c.Admit(Key{1, 0}) || c.Admit(Key{1, 0}) {
		t.Fatal("nil cache admitted a block")
	}
	if st := c.Stats(); st != (Stats{}) {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

func TestGetPutHitMiss(t *testing.T) {
	c := New(1<<20, 4)
	k := Key{File: 3, Offset: 4096}
	if _, ok := c.Get(k); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Put(k, []byte("block-contents"))
	v, ok := c.Get(k)
	if !ok || string(v) != "block-contents" {
		t.Fatalf("Get = %q, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
	if st.HitRatio() != 0.5 {
		t.Fatalf("hit ratio = %v, want 0.5", st.HitRatio())
	}
}

func TestLRUEviction(t *testing.T) {
	// One shard so the LRU order is fully observable.
	blk := make([]byte, 100)
	capacity := int64(3 * (len(blk) + entryOverhead))
	c := New(capacity, 1)
	for i := uint64(0); i < 3; i++ {
		c.Put(Key{File: 1, Offset: i}, blk)
	}
	// Touch block 0 so block 1 becomes LRU, then overflow by one.
	c.Get(Key{File: 1, Offset: 0})
	c.Put(Key{File: 1, Offset: 99}, blk)
	if _, ok := c.Get(Key{File: 1, Offset: 1}); ok {
		t.Fatal("LRU block survived eviction")
	}
	for _, off := range []uint64{0, 2, 99} {
		if _, ok := c.Get(Key{File: 1, Offset: off}); !ok {
			t.Fatalf("recently used block %d was evicted", off)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestByteCharging(t *testing.T) {
	c := New(1<<20, 1)
	c.Put(Key{1, 0}, make([]byte, 1000))
	if st := c.Stats(); st.Bytes != 1000+entryOverhead {
		t.Fatalf("charged %d bytes, want %d", st.Bytes, 1000+entryOverhead)
	}
	// Refreshing with a different size must re-charge, not double-charge.
	c.Put(Key{1, 0}, make([]byte, 200))
	if st := c.Stats(); st.Bytes != 200+entryOverhead {
		t.Fatalf("after refresh charged %d bytes, want %d", st.Bytes, 200+entryOverhead)
	}
}

func TestOversizedBlockRejected(t *testing.T) {
	c := New(1024, 1)
	c.Put(Key{1, 0}, make([]byte, 4096))
	if _, ok := c.Get(Key{1, 0}); ok {
		t.Fatal("block larger than the shard was admitted")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("entries = %d, want 0", st.Entries)
	}
}

func TestEvictFile(t *testing.T) {
	c := New(1<<20, 4)
	for off := uint64(0); off < 8; off++ {
		c.Put(Key{File: 7, Offset: off * 4096}, make([]byte, 64))
		c.Put(Key{File: 8, Offset: off * 4096}, make([]byte, 64))
	}
	c.EvictFile(7)
	st := c.Stats()
	if st.Entries != 8 {
		t.Fatalf("entries = %d after EvictFile, want 8", st.Entries)
	}
	for off := uint64(0); off < 8; off++ {
		if _, ok := c.Get(Key{File: 7, Offset: off * 4096}); ok {
			t.Fatal("block of evicted file still cached")
		}
		if _, ok := c.Get(Key{File: 8, Offset: off * 4096}); !ok {
			t.Fatal("EvictFile dropped another file's block")
		}
	}
}

func TestShardRounding(t *testing.T) {
	c := New(1<<20, 10) // rounds up to 16 shards
	if len(c.shards) != 16 {
		t.Fatalf("shards = %d, want 16", len(c.shards))
	}
	c = New(1<<20, 0)
	if len(c.shards) != 16 {
		t.Fatalf("default shards = %d, want 16", len(c.shards))
	}
}

// TestConcurrentAccess hammers the cache from many goroutines for the race
// detector; correctness here is "no races, no panics, values intact".
func TestConcurrentAccess(t *testing.T) {
	c := New(64<<10, 8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := Key{File: uint64(g % 4), Offset: uint64(i % 64)}
				if v, ok := c.Get(k); ok {
					if string(v) != fmt.Sprintf("f%d-o%d", k.File, k.Offset) {
						t.Errorf("corrupt value %q for %+v", v, k)
						return
					}
				} else if c.Admit(k) {
					c.Put(k, []byte(fmt.Sprintf("f%d-o%d", k.File, k.Offset)))
				} else {
					c.NoteDirect()
				}
				if i%5 == 0 { // refresh a resident key while others read it
					c.Put(k, []byte(fmt.Sprintf("f%d-o%d", k.File, k.Offset)))
				}
				if i%500 == 0 {
					c.EvictFile(uint64(g % 4))
				}
			}
		}(g)
	}
	wg.Wait()
}

// Admission is second-touch: the first miss of a block is remembered, the
// second one inside the window admits it, and the admission uses the memory
// up.
func TestAdmitOnSecondMiss(t *testing.T) {
	c := New(8<<20, 16)
	if got := len(c.recent); got != 256 {
		t.Fatalf("an 8 MiB cache has %d recent-miss slots, want 256", got)
	}
	k := Key{File: 9, Offset: 40960}
	for i, want := range []bool{false, true, false, true} {
		if got := c.Admit(k); got != want {
			t.Fatalf("miss %d: Admit = %v, want %v", i+1, got, want)
		}
	}
	c.NoteDirect()
	if st := c.Stats(); st.Admitted != 2 || st.Direct != 1 {
		t.Fatalf("stats = %+v, want 2 admitted / 1 direct", st)
	}
}

// The window is small and forgets: once more distinct blocks have missed than
// it has slots, an old first touch no longer counts.
func TestAdmitWindowForgets(t *testing.T) {
	c := New(8<<20, 16)
	old := Key{File: 1, Offset: 0}
	if c.Admit(old) {
		t.Fatal("first miss admitted")
	}
	admitted := 0
	for i := 1; i <= 16*len(c.recent); i++ {
		if c.Admit(Key{File: 2, Offset: uint64(i) * 4096}) {
			admitted++
		}
	}
	if admitted != 0 {
		t.Fatalf("%d one-touch blocks were admitted", admitted)
	}
	if c.Admit(old) {
		t.Fatal("a first touch survived sixteen windows of other misses")
	}
	// A re-touch inside the window, with other misses in between, admits.
	hot := Key{File: 3, Offset: 8192}
	c.Admit(hot)
	for i := 0; i < len(c.recent)/8; i++ {
		c.Admit(Key{File: 4, Offset: uint64(i) * 4096})
	}
	if !c.Admit(hot) {
		t.Fatal("a second touch 32 misses after the first was not admitted")
	}
}
