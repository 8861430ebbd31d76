package sstable

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

func newEnv(t *testing.T) (*pmemfs.FS, *hw.Thread) {
	t.Helper()
	_, fs, th := newMachineEnv(t)
	return fs, th
}

type entry struct {
	key  string
	seq  uint64
	kind util.ValueKind
	val  string
}

func buildTable(t *testing.T, fs *pmemfs.FS, th *hw.Thread, name string, entries []entry) *Reader {
	t.Helper()
	fw, err := fs.Create(th, name, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(fw, th)
	for _, e := range entries {
		ik := util.MakeInternalKey(nil, []byte(e.key), e.seq, e.kind)
		if err := w.Add(ik, []byte(e.val)); err != nil {
			t.Fatal(err)
		}
	}
	count, smallest, largest, err := w.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if count != len(entries) {
		t.Fatalf("count = %d, want %d", count, len(entries))
	}
	if len(entries) > 0 {
		if string(smallest.UserKey()) != entries[0].key {
			t.Fatalf("smallest = %s", smallest)
		}
		if string(largest.UserKey()) != entries[len(entries)-1].key {
			t.Fatalf("largest = %s", largest)
		}
	}
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(f, th)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func sortedEntries(n int) []entry {
	var es []entry
	for i := 0; i < n; i++ {
		es = append(es, entry{
			key:  fmt.Sprintf("user%08d", i),
			seq:  uint64(1000 + i),
			kind: util.KindValue,
			val:  fmt.Sprintf("payload-%d-%s", i, bytes.Repeat([]byte("v"), i%40)),
		})
	}
	return es
}

func TestGetEveryKey(t *testing.T) {
	fs, th := newEnv(t)
	es := sortedEntries(5000) // spans many data blocks
	r := buildTable(t, fs, th, "t1", es)
	for _, e := range es {
		ik := util.MakeInternalKey(nil, []byte(e.key), util.MaxSequence, util.KindValue)
		v, _, kind, ok, err := r.Get(th, ik)
		if err != nil {
			t.Fatal(err)
		}
		if !ok || kind != util.KindValue || string(v) != e.val {
			t.Fatalf("Get(%s) = %q, %v, %v", e.key, v, kind, ok)
		}
	}
}

func TestGetAbsentKey(t *testing.T) {
	fs, th := newEnv(t)
	r := buildTable(t, fs, th, "t1", sortedEntries(100))
	for _, k := range []string{"aaaa", "user00000050x", "zzzz"} {
		ik := util.MakeInternalKey(nil, []byte(k), util.MaxSequence, util.KindValue)
		if _, _, _, ok, _ := r.Get(th, ik); ok {
			t.Fatalf("found absent key %q", k)
		}
	}
}

func TestGetRespectsSnapshotSeq(t *testing.T) {
	fs, th := newEnv(t)
	// Same user key at descending seq (internal key order).
	es := []entry{
		{"k", 30, util.KindValue, "v30"},
		{"k", 20, util.KindDelete, ""},
		{"k", 10, util.KindValue, "v10"},
	}
	r := buildTable(t, fs, th, "t1", es)
	// At seq >= 30 we see v30.
	ik := util.MakeInternalKey(nil, []byte("k"), 35, util.KindValue)
	v, _, kind, ok, _ := r.Get(th, ik)
	if !ok || kind != util.KindValue || string(v) != "v30" {
		t.Fatalf("seq35: %q %v %v", v, kind, ok)
	}
	// At seq 25 we see the tombstone.
	ik = util.MakeInternalKey(nil, []byte("k"), 25, util.KindValue)
	_, _, kind, ok, _ = r.Get(th, ik)
	if !ok || kind != util.KindDelete {
		t.Fatalf("seq25: kind=%v ok=%v", kind, ok)
	}
	// At seq 15 we see v10.
	ik = util.MakeInternalKey(nil, []byte("k"), 15, util.KindValue)
	v, _, kind, ok, _ = r.Get(th, ik)
	if !ok || kind != util.KindValue || string(v) != "v10" {
		t.Fatalf("seq15: %q %v %v", v, kind, ok)
	}
}

func TestFullScan(t *testing.T) {
	fs, th := newEnv(t)
	es := sortedEntries(3000)
	r := buildTable(t, fs, th, "t1", es)
	it, err := r.NewIter(th)
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	for i, e := range es {
		if !it.Valid() {
			t.Fatalf("scan died at %d (err=%v)", i, it.Err())
		}
		if string(it.Key().UserKey()) != e.key || string(it.Value()) != e.val {
			t.Fatalf("at %d: %s=%q", i, it.Key(), it.Value())
		}
		it.Next()
	}
	if it.Valid() {
		t.Fatal("scan has extras")
	}
	if it.Err() != nil {
		t.Fatal(it.Err())
	}
}

func TestIterSeek(t *testing.T) {
	fs, th := newEnv(t)
	es := sortedEntries(2000)
	r := buildTable(t, fs, th, "t1", es)
	it, _ := r.NewIter(th)
	// Seek to a key in the middle of some block.
	target := util.MakeInternalKey(nil, []byte("user00001234"), util.MaxSequence, util.KindValue)
	it.Seek(target)
	if !it.Valid() || string(it.Key().UserKey()) != "user00001234" {
		t.Fatalf("Seek landed on %s", it.Key())
	}
	// Seek between keys.
	target = util.MakeInternalKey(nil, []byte("user00001234a"), util.MaxSequence, util.KindValue)
	it.Seek(target)
	if !it.Valid() || string(it.Key().UserKey()) != "user00001235" {
		t.Fatalf("between-keys Seek landed on %s", it.Key())
	}
	// Seek past the end.
	target = util.MakeInternalKey(nil, []byte("zzzz"), util.MaxSequence, util.KindValue)
	it.Seek(target)
	if it.Valid() {
		t.Fatal("seek past end valid")
	}
}

func TestEmptyTable(t *testing.T) {
	fs, th := newEnv(t)
	r := buildTable(t, fs, th, "empty", nil)
	it, _ := r.NewIter(th)
	it.SeekToFirst()
	if it.Valid() {
		t.Fatal("empty table iterates")
	}
	ik := util.MakeInternalKey(nil, []byte("k"), util.MaxSequence, util.KindValue)
	if _, _, _, ok, _ := r.Get(th, ik); ok {
		t.Fatal("empty table found a key")
	}
}

func TestMultipleTablesShareFS(t *testing.T) {
	fs, th := newEnv(t)
	r1 := buildTable(t, fs, th, "a", sortedEntries(500))
	r2 := buildTable(t, fs, th, "b", sortedEntries(500))
	ik := util.MakeInternalKey(nil, []byte("user00000250"), util.MaxSequence, util.KindValue)
	for i, r := range []*Reader{r1, r2} {
		if _, _, _, ok, _ := r.Get(th, ik); !ok {
			t.Fatalf("table %d lost key", i)
		}
	}
}

func TestKeysWithSharedPrefixesAcrossBlocks(t *testing.T) {
	fs, th := newEnv(t)
	var es []entry
	for i := 0; i < 4000; i++ {
		es = append(es, entry{
			key:  fmt.Sprintf("tenant/alpha/workspace/%08d", i),
			seq:  uint64(i + 1),
			kind: util.KindValue,
			val:  "v",
		})
	}
	sort.Slice(es, func(i, j int) bool { return es[i].key < es[j].key })
	r := buildTable(t, fs, th, "pfx", es)
	for i := 0; i < 4000; i += 37 {
		ik := util.MakeInternalKey(nil, []byte(es[i].key), util.MaxSequence, util.KindValue)
		if _, _, _, ok, _ := r.Get(th, ik); !ok {
			t.Fatalf("lost prefixed key %s", es[i].key)
		}
	}
}
