package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestEmptyList(t *testing.T) {
	l := New(nil, 1)
	if l.Len() != 0 {
		t.Fatal("fresh list not empty")
	}
	if _, ok := l.Get([]byte("a"), nil); ok {
		t.Fatal("Get on empty list found something")
	}
	it := l.NewIterator()
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("iterator valid on empty list")
	}
	it.SeekToLast()
	if it.Valid() {
		t.Fatal("SeekToLast valid on empty list")
	}
}

func TestInsertGet(t *testing.T) {
	l := New(nil, 1)
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%06d", i*7%1000))
		l.Insert(k, []byte(fmt.Sprintf("val%d", i)), nil)
	}
	for i := 0; i < 1000; i++ {
		k := []byte(fmt.Sprintf("key%06d", i))
		if _, ok := l.Get(k, nil); !ok {
			t.Fatalf("missing %s", k)
		}
	}
	if _, ok := l.Get([]byte("nope"), nil); ok {
		t.Fatal("found nonexistent key")
	}
	if l.Len() != 1000 {
		t.Fatalf("Len = %d", l.Len())
	}
}

func TestInsertReplaces(t *testing.T) {
	l := New(nil, 1)
	l.Insert([]byte("k"), []byte("v1"), nil)
	l.Insert([]byte("k"), []byte("v2"), nil)
	v, ok := l.Get([]byte("k"), nil)
	if !ok || string(v) != "v2" {
		t.Fatalf("got %q, %v", v, ok)
	}
	if l.Len() != 1 {
		t.Fatalf("replacement changed Len: %d", l.Len())
	}
}

func TestIterationSorted(t *testing.T) {
	l := New(nil, 2)
	rng := rand.New(rand.NewSource(42))
	want := make([]string, 0, 500)
	seen := map[string]bool{}
	for len(want) < 500 {
		k := fmt.Sprintf("k%08d", rng.Intn(1<<30))
		if seen[k] {
			continue
		}
		seen[k] = true
		want = append(want, k)
		l.Insert([]byte(k), []byte("v"), nil)
	}
	sort.Strings(want)
	it := l.NewIterator()
	it.SeekToFirst()
	for i := 0; i < len(want); i++ {
		if !it.Valid() {
			t.Fatalf("iterator ended at %d of %d", i, len(want))
		}
		if string(it.Key()) != want[i] {
			t.Fatalf("at %d: got %s want %s", i, it.Key(), want[i])
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("iterator has extra entries")
	}
}

func TestSeek(t *testing.T) {
	l := New(nil, 3)
	for i := 0; i < 100; i += 2 {
		l.Insert([]byte(fmt.Sprintf("k%03d", i)), nil, nil)
	}
	it := l.NewIterator()
	it.Seek([]byte("k051"), nil)
	if !it.Valid() || string(it.Key()) != "k052" {
		t.Fatalf("Seek(k051) landed on %s", it.Key())
	}
	it.Seek([]byte("k052"), nil)
	if !it.Valid() || string(it.Key()) != "k052" {
		t.Fatal("Seek to exact key failed")
	}
	it.Seek([]byte("k999"), nil)
	if it.Valid() {
		t.Fatal("Seek past end should be invalid")
	}
	it.SeekToLast()
	if !it.Valid() || string(it.Key()) != "k098" {
		t.Fatalf("SeekToLast landed on %s", it.Key())
	}
}

func TestChargeFuncCalled(t *testing.T) {
	l := New(nil, 4)
	for i := 0; i < 256; i++ {
		l.Insert([]byte(fmt.Sprintf("k%04d", i)), nil, nil)
	}
	var visits int
	l.Get([]byte("k0128"), func(n int) { visits += n })
	if visits == 0 {
		t.Fatal("Get charged no visits")
	}
	// Search should be logarithmic-ish, far fewer visits than entries.
	if visits > 100 {
		t.Fatalf("suspiciously many visits: %d", visits)
	}
	visits = 0
	l.Insert([]byte("zz"), nil, func(n int) { visits += n })
	if visits == 0 {
		t.Fatal("Insert charged no visits")
	}
}

func TestCustomComparator(t *testing.T) {
	// Reverse ordering comparator.
	l := New(func(a, b []byte) int { return -bytes.Compare(a, b) }, 5)
	l.Insert([]byte("a"), nil, nil)
	l.Insert([]byte("b"), nil, nil)
	l.Insert([]byte("c"), nil, nil)
	it := l.NewIterator()
	it.SeekToFirst()
	if string(it.Key()) != "c" {
		t.Fatalf("reverse comparator: first = %s", it.Key())
	}
}

func TestConcurrentInserts(t *testing.T) {
	l := New(nil, 6)
	const (
		writers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				k := []byte(fmt.Sprintf("w%02d-%06d", w, i))
				l.Insert(k, []byte{byte(w)}, nil)
			}
		}(w)
	}
	wg.Wait()
	if l.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*perW)
	}
	// Every key present, list fully sorted.
	it := l.NewIterator()
	it.SeekToFirst()
	var prev []byte
	n := 0
	for it.Valid() {
		if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
			t.Fatalf("order violation: %s !< %s", prev, it.Key())
		}
		prev = append(prev[:0], it.Key()...)
		n++
		it.Next()
	}
	if n != writers*perW {
		t.Fatalf("iterated %d, want %d", n, writers*perW)
	}
}

func TestConcurrentReadWrite(t *testing.T) {
	l := New(nil, 7)
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			l.Insert([]byte(fmt.Sprintf("k%08d", i)), []byte("v"), nil)
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 5000; i++ {
				it := l.NewIterator()
				it.Seek([]byte("k"), nil)
				for j := 0; it.Valid() && j < 10; j++ {
					it.Next()
				}
			}
		}()
	}
	readers.Wait()
	close(done)
	wg.Wait()
}

func TestPropertyMatchesSortedMap(t *testing.T) {
	f := func(keys [][]byte) bool {
		l := New(nil, 99)
		model := map[string][]byte{}
		for i, k := range keys {
			v := []byte(fmt.Sprintf("v%d", i))
			l.Insert(append([]byte(nil), k...), v, nil)
			model[string(k)] = v
		}
		if l.Len() != len(model) {
			return false
		}
		for k, v := range model {
			got, ok := l.Get([]byte(k), nil)
			if !ok || !bytes.Equal(got, v) {
				return false
			}
		}
		// Iteration order equals sorted model keys.
		want := make([]string, 0, len(model))
		for k := range model {
			want = append(want, k)
		}
		sort.Strings(want)
		it := l.NewIterator()
		it.SeekToFirst()
		for _, k := range want {
			if !it.Valid() || string(it.Key()) != k {
				return false
			}
			it.Next()
		}
		if it.Valid() {
			return false
		}
		// A finger fed the same upserts builds the same list, in ascending
		// order (what it is for; the stable sort keeps a key's last value
		// last) and in arrival order (every smaller key restarts from the head).
		arrival := make([]int, len(keys))
		for i := range arrival {
			arrival[i] = i
		}
		ascending := append([]int(nil), arrival...)
		sort.SliceStable(ascending, func(a, b int) bool { return bytes.Compare(keys[ascending[a]], keys[ascending[b]]) < 0 })
		for _, order := range [][]int{ascending, arrival} {
			fl := New(nil, 7)
			fg := fl.NewFinger(nil)
			for _, i := range order {
				fg.Seek(append([]byte(nil), keys[i]...))
				fg.Set([]byte(fmt.Sprintf("v%d", i)))
			}
			if fl.Len() != l.Len() || !sameEntries(l, fl) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// key is the i-th of the fixed-width keys the finger tests upsert in order.
func key(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

// sameEntries reports whether two lists hold the same keys and values in the
// same order.
func sameEntries(a, b *List) bool {
	ia, ib := a.NewIterator(), b.NewIterator()
	ia.SeekToFirst()
	ib.SeekToFirst()
	for ; ia.Valid() && ib.Valid(); ia.Next() {
		if !bytes.Equal(ia.Key(), ib.Key()) || !bytes.Equal(ia.Value(), ib.Value()) {
			return false
		}
		ib.Next()
	}
	return !ia.Valid() && !ib.Valid()
}

// checkTowers verifies every level of the list: keys strictly ascend, and a
// node linked at level i is linked at every level below it.
func checkTowers(t *testing.T, l *List) {
	t.Helper()
	for level := int(l.height.Load()) - 1; level >= 0; level-- {
		var prev *node
		for n := l.head.next[level].Load(); n != nil; n = n.next[level].Load() {
			if prev != nil && l.cmp(prev.key, n.key) >= 0 {
				t.Fatalf("level %d: %q before %q", level, prev.key, n.key)
			}
			if len(n.next) <= level {
				t.Fatalf("level %d: %q has height %d", level, n.key, len(n.next))
			}
			prev = n
		}
	}
	for level := int(l.height.Load()); level < maxHeight; level++ {
		if l.head.next[level].Load() != nil {
			t.Fatalf("level %d is linked above the list height %d", level, l.height.Load())
		}
	}
}

func TestFingerEqualKeysReplace(t *testing.T) {
	l := New(nil, 3)
	l.Insert([]byte("b"), []byte("old"), nil)
	fg := l.NewFinger(nil)
	if _, ok := fg.Seek([]byte("a")); ok {
		t.Fatal("Seek found a key that was never inserted")
	}
	fg.Set([]byte("a1"))
	// The same key again, straight after the Set that created it.
	if v, ok := fg.Seek([]byte("a")); !ok || string(v) != "a1" {
		t.Fatalf("Seek(a) after Set = %q, %v", v, ok)
	}
	fg.Set([]byte("a2"))
	if v, ok := fg.Seek([]byte("b")); !ok || string(v) != "old" {
		t.Fatalf("Seek(b) = %q, %v, want the inserted value", v, ok)
	}
	fg.Set([]byte("new"))
	fg.Set([]byte("newer")) // a second Set lands on the same node
	if l.Len() != 2 {
		t.Fatalf("Len = %d after replacing, want 2", l.Len())
	}
	for k, want := range map[string]string{"a": "a2", "b": "newer"} {
		if v, ok := l.Get([]byte(k), nil); !ok || string(v) != want {
			t.Fatalf("Get(%s) = %q, %v, want %q", k, v, ok, want)
		}
	}
}

// TestFingerRaisesHeight drives one finger from an empty one-level list to a
// tall one, and a second finger through a list that already is: towers taller
// than anything the finger has descended must be spliced in at every level.
func TestFingerRaisesHeight(t *testing.T) {
	const n = 20000
	l := New(nil, 11)
	fg := l.NewFinger(nil)
	raises, height := 0, l.height.Load()
	for i := 0; i < n; i += 2 {
		fg.Seek(key(i))
		fg.Set(key(i))
		if h := l.height.Load(); h > height {
			raises, height = raises+1, h
		}
	}
	if raises < 3 {
		t.Fatalf("the list grew taller %d times; the test needs mid-run raises", raises)
	}
	checkTowers(t, l)
	// Odd keys interleave with what is there, from a fresh finger.
	fg = l.NewFinger(nil)
	for i := 1; i < n; i += 2 {
		if _, ok := fg.Seek(key(i)); ok {
			t.Fatalf("%s found before it was set", key(i))
		}
		fg.Set(key(i))
	}
	checkTowers(t, l)
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	it := l.NewIterator()
	it.SeekToFirst()
	for i := 0; i < n; i++ {
		if !it.Valid() || !bytes.Equal(it.Key(), key(i)) {
			t.Fatalf("entry %d missing from the bottom level", i)
		}
		if v, ok := l.Get(key(i), nil); !ok || !bytes.Equal(v, key(i)) {
			t.Fatalf("Get(%s) = %q, %v", key(i), v, ok)
		}
		it.Next()
	}
}

// TestFingerVisits pins what the finger is for: ascending upserts report
// their visits, and cost a fraction of what head-to-leaf inserts do.
func TestFingerVisits(t *testing.T) {
	const base, n = 50000, 5000
	build := func() *List {
		l := New(nil, 5)
		for i := 0; i < base; i++ {
			l.Insert(key(i*10), nil, nil)
		}
		return l
	}
	var inserted, fingered int
	l := build()
	for i := 0; i < n; i++ {
		l.Insert(key(i*100+5), nil, func(v int) { inserted += v })
	}
	l = build()
	fg := l.NewFinger(func(v int) {
		if v < 1 {
			t.Fatalf("a Seek reported %d visits", v)
		}
		fingered += v
	})
	for i := 0; i < n; i++ {
		fg.Seek(key(i*100 + 5))
		fg.Set(nil)
	}
	t.Logf("visits per upsert: Insert %.1f, finger %.1f", float64(inserted)/n, float64(fingered)/n)
	if fingered == 0 || fingered*2 > inserted {
		t.Fatalf("finger made %d visits, Insert %d: want well under half", fingered, inserted)
	}
}

// TestFingerConcurrentReaders runs Get and iterators against a live finger
// writer (run with -race): a reader must find every key published before it
// looked, and always walk keys in order.
func TestFingerConcurrentReaders(t *testing.T) {
	const n = 20000
	l := New(nil, 13)
	for i := 0; i < n; i += 4 { // the writer both replaces and inserts
		l.Insert(key(i), []byte("old"), nil)
	}
	var published atomic.Int64 // keys below it are set
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		fg := l.NewFinger(nil)
		for i := 0; i < n; i++ {
			fg.Seek(key(i))
			fg.Set([]byte("new"))
			published.Store(int64(i + 1))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for published.Load() < n {
				if p := int(published.Load()); p > 0 {
					k := key(rng.Intn(p))
					if v, ok := l.Get(k, nil); !ok || string(v) != "new" {
						t.Errorf("Get(%s) = %q, %v after it was published", k, v, ok)
						return
					}
				}
				it := l.NewIterator()
				it.Seek(key(rng.Intn(n)), nil)
				var prev []byte
				for j := 0; it.Valid() && j < 32; j++ {
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						t.Errorf("iterator went from %q to %q", prev, it.Key())
						return
					}
					prev = it.Key()
					it.Next()
				}
			}
		}(r)
	}
	wg.Wait()
	checkTowers(t, l)
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
}
