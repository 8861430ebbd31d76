package skiplist

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"cachekv/internal/util"
)

// amortised is the allocations f(n) makes, per item.
func amortised(n int, f func(n int)) float64 {
	return testing.AllocsPerRun(1, func() { f(n) }) / float64(n)
}

// TestInsertAllocs: a list allocates per chunk, not per key — the node, its
// tower and its copies of key and value all come out of the list's slabs.
func TestInsertAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 20000
	keys := make([][]byte, 2*n) // AllocsPerRun calls f twice: a warm-up, then the run
	for i := range keys {
		keys[i] = key(i * 7919 % len(keys))
	}
	value := make([]byte, 64)
	next := 0
	l := New(nil, 1)
	if got := amortised(n, func(n int) {
		for ; n > 0; n-- {
			l.Insert(keys[next], value, nil)
			next++
		}
	}); got > 0.1 {
		t.Errorf("Insert of a new key allocates %.3f objects, want at most 0.1", got)
	}
	// Replacing allocates no more: the new value's bytes and its slice header
	// are slab memory too.
	next = 0
	if got := amortised(n, func(n int) {
		for ; n > 0; n-- {
			l.Insert(keys[next], value, nil)
			next++
		}
	}); got > 0.1 {
		t.Errorf("Insert over an existing key allocates %.3f objects, want at most 0.1", got)
	}
	for i := range keys {
		keys[i] = key(i)
	}
	next = 0
	fl := New(nil, 1)
	if got := amortised(n, func(n int) {
		fg := fl.NewFinger(nil) // each call is an ascending run of its own
		for ; n > 0; n-- {
			fg.Seek(keys[next])
			fg.Set(value)
			next++
		}
	}); got > 0.1 {
		t.Errorf("Finger.Set allocates %.3f objects per key, want at most 0.1", got)
	}
}

// TestOwnershipCallerBuffers: Insert, Finger.Seek and Finger.Set copy what
// they are handed, so a caller that reuses one key buffer and one value buffer
// for every entry reads every entry back as it was written.
func TestOwnershipCallerBuffers(t *testing.T) {
	const n = 5000
	l := New(nil, 9)
	k, v := make([]byte, 0, 16), make([]byte, 0, 16)
	for i := 0; i < n; i += 2 {
		k, v = append(k[:0], key(i)...), append(v[:0], fmt.Sprintf("v%d", i)...)
		l.Insert(k, v, nil)
		for j := range k {
			k[j] = 0xEE
		}
		for j := range v {
			v[j] = 0xEE
		}
	}
	fg := l.NewFinger(nil)
	for i := 0; i < n; i++ { // odd keys are new, even ones replaced
		k = append(k[:0], key(i)...)
		_, found := fg.Seek(k)
		if found != (i%2 == 0) {
			t.Fatalf("Seek(%s) found = %v", key(i), found)
		}
		for j := range k { // between Seek and Set the key is already the finger's
			k[j] = 0xEE
		}
		v = append(v[:0], fmt.Sprintf("w%d", i)...)
		fg.Set(v)
		for j := range v {
			v[j] = 0xEE
		}
	}
	checkTowers(t, l)
	it := l.NewIterator()
	it.SeekToFirst()
	for i := 0; i < n; i++ {
		want := fmt.Sprintf("w%d", i)
		if !it.Valid() || !bytes.Equal(it.Key(), key(i)) || string(it.Value()) != want {
			t.Fatalf("entry %d: iterator at %q=%q, want %s=%s", i, it.Key(), it.Value(), key(i), want)
		}
		if got, ok := l.Get(key(i), nil); !ok || string(got) != want {
			t.Fatalf("Get(%s) = %q, %v, want %s", key(i), got, ok, want)
		}
		it.Next()
	}
}

// TestOwnershipViewsOutliveReplacement: a value handed out stays what it was
// after the key's value is replaced — replacement publishes new bytes, it does
// not write over the old ones.
func TestOwnershipViewsOutliveReplacement(t *testing.T) {
	l := New(nil, 2)
	l.Insert([]byte("k"), []byte("first"), nil)
	old, _ := l.Get([]byte("k"), nil)
	l.Insert([]byte("k"), []byte("again"), nil)
	fg := l.NewFinger(nil)
	fg.Seek([]byte("k"))
	fg.Set([]byte("third"))
	if now, _ := l.Get([]byte("k"), nil); string(old) != "first" || string(now) != "third" {
		t.Fatalf("the view reads %q and Get %q, want first and third", old, now)
	}
}

// TestOwnershipConcurrentSlabs: eight goroutines insert into one list at once
// (run with -race), each reusing its own key and value buffers; every key and
// value reads back unmangled, so no two inserts were handed the same slab
// bytes, node or tower.
func TestOwnershipConcurrentSlabs(t *testing.T) {
	const writers, perW = 8, 3000
	l := New(nil, 6)
	val := func(w, i int) []byte {
		return bytes.Repeat([]byte{byte('a' + w)}, 1+i%90)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var k, v []byte
			for i := 0; i < perW; i++ {
				// Interleaved key ranges, so neighbours belong to other writers.
				k, v = append(k[:0], key(i*writers+w)...), append(v[:0], val(w, i)...)
				l.Insert(k, v, nil)
			}
		}(w)
	}
	wg.Wait()
	checkTowers(t, l)
	if l.Len() != writers*perW {
		t.Fatalf("Len = %d, want %d", l.Len(), writers*perW)
	}
	it := l.NewIterator()
	it.SeekToFirst()
	for n := 0; n < writers*perW; n++ {
		w, i := n%writers, n/writers
		if !it.Valid() || !bytes.Equal(it.Key(), key(n)) || !bytes.Equal(it.Value(), val(w, i)) {
			t.Fatalf("entry %d: %q=%q, want %s=%s", n, it.Key(), it.Value(), key(n), val(w, i))
		}
		it.Next()
	}
}
