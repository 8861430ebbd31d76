package block

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func buildBlock(entries [][2]string) []byte {
	b := NewBuilder()
	for _, e := range entries {
		b.Add([]byte(e[0]), []byte(e[1]))
	}
	return b.Finish()
}

func TestEmptyBuilder(t *testing.T) {
	b := NewBuilder()
	if !b.Empty() {
		t.Fatal("fresh builder not empty")
	}
	contents := b.Finish()
	it, err := NewIter(contents)
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("empty block iterates")
	}
}

func TestRoundTripManyEntries(t *testing.T) {
	var entries [][2]string
	for i := 0; i < 1000; i++ {
		entries = append(entries, [2]string{
			fmt.Sprintf("key%06d", i), fmt.Sprintf("value-%d", i*i),
		})
	}
	it, err := NewIter(buildBlock(entries))
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	for i, e := range entries {
		if !it.Valid() {
			t.Fatalf("iterator died at %d", i)
		}
		if string(it.Key()) != e[0] || string(it.Value()) != e[1] {
			t.Fatalf("at %d: %q=%q", i, it.Key(), it.Value())
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("extra entries")
	}
}

func TestPrefixCompressionActuallyCompresses(t *testing.T) {
	b := NewBuilder()
	var raw int
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("commonprefix/verylongsharedpath/%06d", i)
		b.Add([]byte(k), []byte("v"))
		raw += len(k) + 1
	}
	if got := len(b.Finish()); got >= raw {
		t.Fatalf("no compression: %d >= %d", got, raw)
	}
}

func TestSeek(t *testing.T) {
	var entries [][2]string
	for i := 0; i < 500; i += 5 {
		entries = append(entries, [2]string{fmt.Sprintf("k%04d", i), "v"})
	}
	contents := buildBlock(entries)
	it, _ := NewIter(contents)

	it.Seek([]byte("k0102"), nil)
	if !it.Valid() || string(it.Key()) != "k0105" {
		t.Fatalf("Seek(k0102) -> %q", it.Key())
	}
	it.Seek([]byte("k0105"), nil)
	if !it.Valid() || string(it.Key()) != "k0105" {
		t.Fatal("exact seek failed")
	}
	it.Seek([]byte(""), nil)
	if !it.Valid() || string(it.Key()) != "k0000" {
		t.Fatal("seek to empty key should land on first entry")
	}
	it.Seek([]byte("zzz"), nil)
	if it.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestSeekEveryKey(t *testing.T) {
	// Seek must find each key exactly, across restart boundaries.
	var entries [][2]string
	for i := 0; i < 200; i++ {
		entries = append(entries, [2]string{fmt.Sprintf("key%05d", i*3), fmt.Sprintf("%d", i)})
	}
	contents := buildBlock(entries)
	it, _ := NewIter(contents)
	for _, e := range entries {
		it.Seek([]byte(e[0]), nil)
		if !it.Valid() || string(it.Key()) != e[0] || string(it.Value()) != e[1] {
			t.Fatalf("seek %q found %q=%q", e[0], it.Key(), it.Value())
		}
	}
}

func TestBuilderReset(t *testing.T) {
	b := NewBuilder()
	b.Add([]byte("a"), []byte("1"))
	_ = b.Finish()
	b.Reset()
	if !b.Empty() {
		t.Fatal("Reset did not clear")
	}
	b.Add([]byte("b"), []byte("2"))
	it, _ := NewIter(b.Finish())
	it.SeekToFirst()
	if string(it.Key()) != "b" {
		t.Fatalf("after reset got %q", it.Key())
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestCorruptBlocks(t *testing.T) {
	if _, err := NewIter(nil); err == nil {
		t.Fatal("nil block accepted")
	}
	if _, err := NewIter([]byte{1, 2}); err == nil {
		t.Fatal("short block accepted")
	}
	// Restart count pointing beyond the buffer.
	bad := make([]byte, 8)
	bad[4] = 0xFF
	if _, err := NewIter(bad); err == nil {
		t.Fatal("bogus restart count accepted")
	}
}

func TestEstimatedSizeGrows(t *testing.T) {
	b := NewBuilder()
	s0 := b.EstimatedSize()
	b.Add([]byte("key"), []byte("value"))
	if b.EstimatedSize() <= s0 {
		t.Fatal("EstimatedSize did not grow")
	}
}

// roundTrip builds a block of the sorted keys, reads it back entry for entry
// and by a Seek of every key, and holds the resident, the point-faulted and
// the walk-faulted reader to the same answers throughout.
func roundTrip(t *testing.T, keys []string, value func(k string) string) bool {
	t.Helper()
	b := NewBuilder()
	for _, k := range keys {
		b.Add([]byte(k), []byte(value(k)))
	}
	contents := b.Finish()
	it, err := NewIter(contents)
	if err != nil {
		return false
	}
	if it.Next(); !it.Valid() || string(it.Key()) != keys[0] { // unpositioned is before the first entry
		return false
	}
	it.SeekToFirst()
	for _, k := range keys {
		if !it.Valid() || string(it.Key()) != k || string(it.Value()) != value(k) {
			return false
		}
		it.Next()
	}
	if it.Valid() || it.Err() != nil {
		return false
	}
	for i, k := range keys {
		it.Seek([]byte(k), nil)
		if !it.Valid() || !bytes.Equal(it.Key(), []byte(k)) || string(it.Value()) != value(k) {
			return false
		}
		if i%5 == 0 {
			agree(t, contents, []byte(k), 0)
		}
	}
	agree(t, contents, nil, 0)
	return true
}

func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw map[string]string) bool {
		if len(raw) == 0 {
			return true
		}
		keys := make([]string, 0, len(raw))
		for k := range raw {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return roundTrip(t, keys, func(k string) string { return raw[k] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
	// The shapes a run-packed layout can get wrong: a lone entry, a run that
	// is exactly full, one entry into the next run, values of no bytes, and a
	// value so large that the table writer gives it a block of its own.
	numbered := func(n int) []string {
		keys := make([]string, n)
		for i := range keys {
			keys[i] = fmt.Sprintf("key%04d", i)
		}
		return keys
	}
	for _, n := range []int{1, restartInterval, restartInterval + 1, 3 * restartInterval} {
		if !roundTrip(t, numbered(n), func(k string) string { return "v" + k }) {
			t.Fatalf("%d entries do not round-trip", n)
		}
		if !roundTrip(t, numbered(n), func(string) string { return "" }) {
			t.Fatalf("%d entries with empty values do not round-trip", n)
		}
	}
	if !roundTrip(t, numbered(1), func(string) string { return strings.Repeat("x", 10<<10) }) {
		t.Fatal("one outsized value does not round-trip")
	}
}
