package kvstore

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"

	"cachekv/internal/arena"
	"cachekv/internal/hw"
	"cachekv/internal/util"
)

func testEnv() (*hw.Machine, *hw.Thread) {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 512 << 20
	m := hw.NewMachine(cfg)
	return m, m.NewThread(0)
}

func TestEncodeDecodeEntry(t *testing.T) {
	f := func(key, value []byte, seq uint64, del bool) bool {
		seq &= util.MaxSequence
		kind := util.KindValue
		if del {
			kind = util.KindDelete
		}
		ik := util.MakeInternalKey(nil, key, seq, kind)
		enc := EncodeEntry([]byte("pad"), ik, value)[3:] // appends after what dst holds
		got, err := ViewEntry(enc)
		if err != nil || got.Len != len(enc) || got.Len != EntryLen(len(key), len(value)) {
			return false
		}
		return bytes.Equal(got.UKey, key) && got.Seq() == seq && got.Kind() == kind &&
			bytes.Equal(got.Value, value) && bytes.Equal(got.InternalKey(nil), ik)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEntryCorrupt(t *testing.T) {
	ik := util.MakeInternalKey(nil, []byte("key"), 5, util.KindValue)
	enc := EncodeEntry(nil, ik, []byte("value"))
	// Truncations.
	for _, n := range []int{0, 4, 7, len(enc) - 1} {
		if _, err := ViewEntry(enc[:n]); err == nil {
			t.Fatalf("truncation to %d accepted", n)
		}
	}
	// Bit flip in body.
	bad := append([]byte(nil), enc...)
	bad[10] ^= 0xFF
	if _, err := ViewEntry(bad); err == nil {
		t.Fatal("corrupted body accepted")
	}
	// Zero-length header means unwritten space.
	if _, err := ViewEntry(make([]byte, 16)); err == nil {
		t.Fatal("zero header accepted")
	}
}

func TestMemtableDRAMInsertGet(t *testing.T) {
	m, th := testEnv()
	mt := NewMemtable(MemtableConfig{Machine: m, Placement: PlaceDRAM})
	for i := 0; i < 1000; i++ {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%05d", i)), uint64(i+1), util.KindValue)
		if err := mt.Insert(th, ik, []byte(fmt.Sprintf("v%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if mt.Len() != 1000 {
		t.Fatalf("Len = %d", mt.Len())
	}
	if mt.MaxSeq() != 1000 {
		t.Fatalf("MaxSeq = %d", mt.MaxSeq())
	}
	v, seq, kind, ok := mt.Get(th, []byte("k00042"), util.MaxSequence)
	if !ok || string(v) != "v42" || seq != 43 || kind != util.KindValue {
		t.Fatalf("Get = %q, %d, %v, %v", v, seq, kind, ok)
	}
	if _, _, _, ok := mt.Get(th, []byte("missing"), util.MaxSequence); ok {
		t.Fatal("found missing key")
	}
}

func TestMemtableSnapshotReads(t *testing.T) {
	m, th := testEnv()
	mt := NewMemtable(MemtableConfig{Machine: m, Placement: PlaceDRAM})
	k := []byte("k")
	for seq := uint64(10); seq <= 50; seq += 10 {
		ik := util.MakeInternalKey(nil, k, seq, util.KindValue)
		mt.Insert(th, ik, []byte(fmt.Sprintf("v%d", seq)))
	}
	v, seq, _, ok := mt.Get(th, k, 35)
	if !ok || seq != 30 || string(v) != "v30" {
		t.Fatalf("snapshot read: %q @ %d, %v", v, seq, ok)
	}
	if _, _, _, ok := mt.Get(th, k, 5); ok {
		t.Fatal("read below first version succeeded")
	}
}

func TestMemtablePMemPersistsEntries(t *testing.T) {
	m, th := testEnv()
	region := m.Alloc("log", 16<<20, 0)
	nodes := m.Alloc("nodes", 16<<20, 0)
	mt := NewMemtable(MemtableConfig{
		Machine:    m,
		Placement:  PlacePMem,
		FlushInstr: true,
		NodeWrites: 2,
		NodeRegion: nodes,
		EntryArena: arena.NewPArena(region),
	})
	for i := 0; i < 500; i++ {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%05d", i)), uint64(i+1), util.KindValue)
		mt.Insert(th, ik, []byte(fmt.Sprintf("v%d", i)))
	}
	// Crash: eADR drains the cache; the entry log must replay completely.
	m.Crash()
	m.Recover()
	th2 := m.NewThread(0)
	got := map[string]string{}
	RecoverEntries(m, region, th2, func(ik util.InternalKey, val []byte) {
		got[string(ik.UserKey())] = string(val)
	})
	if len(got) != 500 {
		t.Fatalf("recovered %d entries, want 500", len(got))
	}
	if got["k00123"] != "v123" {
		t.Fatalf("recovered k00123 = %q", got["k00123"])
	}
}

func TestMemtableIterSorted(t *testing.T) {
	m, th := testEnv()
	mt := NewMemtable(MemtableConfig{Machine: m, Placement: PlaceDRAM})
	for i := 500; i > 0; i-- {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%05d", i)), uint64(i), util.KindValue)
		mt.Insert(th, ik, []byte("v"))
	}
	it := mt.NewIter()
	it.SeekToFirst()
	prev := ""
	n := 0
	for it.Valid() {
		cur := string(it.Key().UserKey())
		if prev != "" && cur <= prev {
			t.Fatalf("order violation: %s after %s", cur, prev)
		}
		prev = cur
		n++
		it.Next()
	}
	if n != 500 {
		t.Fatalf("iterated %d", n)
	}
}

func TestUserGetResultConsider(t *testing.T) {
	var r UserGetResult
	r.Consider([]byte("a"), 5, util.KindValue)
	r.Consider([]byte("b"), 3, util.KindValue) // older, ignored
	if string(r.Value) != "a" || r.Seq != 5 {
		t.Fatalf("kept %q@%d", r.Value, r.Seq)
	}
	r.Consider(nil, 9, util.KindDelete) // newer tombstone wins
	if r.Kind != util.KindDelete || r.Seq != 9 {
		t.Fatalf("tombstone lost: %v@%d", r.Kind, r.Seq)
	}
}

func TestUserScanSkipsShadowsAndTombstones(t *testing.T) {
	m, th := testEnv()
	mt := NewMemtable(MemtableConfig{Machine: m, Placement: PlaceDRAM})
	insert := func(k string, seq uint64, kind util.ValueKind, v string) {
		ik := util.MakeInternalKey(nil, []byte(k), seq, kind)
		mt.Insert(th, ik, []byte(v))
	}
	insert("a", 1, util.KindValue, "a1")
	insert("a", 5, util.KindValue, "a5")
	insert("b", 2, util.KindValue, "b2")
	insert("b", 6, util.KindDelete, "")
	insert("c", 3, util.KindValue, "c3")
	var got []string
	n := UserScanTombs(mt.NewIter(), nil, util.MaxSequence, 0, nil, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	})
	if n != 2 || got[0] != "a=a5" || got[1] != "c=c3" {
		t.Fatalf("UserScanTombs = %v (n=%d)", got, n)
	}
	// At a snapshot before the tombstone and the overwrite, old values show.
	got = nil
	UserScanTombs(mt.NewIter(), nil, 4, 0, nil, func(k, v []byte) bool {
		got = append(got, string(k)+"="+string(v))
		return true
	})
	if len(got) != 3 || got[0] != "a=a1" || got[1] != "b=b2" || got[2] != "c=c3" {
		t.Fatalf("snapshot UserScanTombs = %v", got)
	}
}

// countingIter counts the advances a scan makes.
type countingIter struct {
	*Iter
	nexts int
}

func (c *countingIter) Next() { c.nexts++; c.Iter.Next() }

// A scan that has delivered its limit-th row stops where it stands: one more
// advance could load an SSTable block nobody reads. With only live,
// single-version keys, limit rows take exactly limit-1 advances.
func TestUserScanStopsAtLimitWithoutAdvancing(t *testing.T) {
	m, th := testEnv()
	mt := NewMemtable(MemtableConfig{Machine: m, Placement: PlaceDRAM})
	for i := 0; i < 20; i++ {
		mt.Insert(th, util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%02d", i)), uint64(i+1), util.KindValue), []byte("v"))
	}
	for _, limit := range []int{1, 7, 20} {
		it := &countingIter{Iter: mt.NewIter()}
		if n := UserScanTombs(it, nil, util.MaxSequence, limit, nil, func(k, v []byte) bool { return true }); n != limit {
			t.Fatalf("limit %d: %d rows", limit, n)
		}
		if it.nexts != limit-1 {
			t.Errorf("limit %d: %d advances, want %d", limit, it.nexts, limit-1)
		}
	}
	// Unlimited: every row is advanced past, which is how the scan finds the end.
	it := &countingIter{Iter: mt.NewIter()}
	if n := UserScanTombs(it, nil, util.MaxSequence, 0, nil, func(k, v []byte) bool { return true }); n != 20 || it.nexts != 20 {
		t.Fatalf("unlimited scan: %d rows, %d advances", n, it.nexts)
	}
}

func TestMemtableCacheSegmentsFlushOnFill(t *testing.T) {
	m, th := testEnv()
	part, err := m.Cache.Reserve(1 << 20)
	if err != nil {
		t.Fatal(err)
	}
	region := m.Alloc("log", 16<<20, 0)
	mt := NewMemtable(MemtableConfig{
		Machine:      m,
		Placement:    PlacePMem,
		SegmentBytes: 64 << 10,
		Partition:    part,
		EntryArena:   arena.NewPArena(region),
	})
	before := m.Cache.Stats()
	for i := 0; i < 2000; i++ {
		ik := util.MakeInternalKey(nil, []byte(fmt.Sprintf("k%06d", i)), uint64(i+1), util.KindValue)
		mt.Insert(th, ik, make([]byte, 64))
	}
	after := m.Cache.Stats()
	if after.Flushes == before.Flushes {
		t.Fatal("segment fills never triggered wholesale clflush")
	}
}
