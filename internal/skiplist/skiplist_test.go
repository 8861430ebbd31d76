package skiplist

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
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
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// key is the i-th of a run of fixed-width keys.
func key(i int) []byte { return []byte(fmt.Sprintf("k%08d", i)) }

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
