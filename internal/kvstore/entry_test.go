package kvstore

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"cachekv/internal/util"
)

// decodeEntryRef is the copying decoder ViewEntry replaced, kept as its
// reference: it returned an internal key and a value of its own.
func decodeEntryRef(src []byte) (util.InternalKey, []byte, int, error) {
	c := util.NewCursor(src)
	blen, crc := uint64(c.U32()), c.U32()
	body := c.Bytes(blen)
	if len(body) == 0 || util.UnmaskCRC(crc) != util.CRC(body) {
		return nil, nil, 0, util.ErrCorrupt
	}
	b := util.NewCursor(body)
	klen, vlen, trailer := b.Uvarint(), b.Uvarint(), b.U64()
	ukey, value := b.Bytes(klen), b.Bytes(vlen)
	if b.Err() != nil {
		return nil, nil, 0, util.ErrCorrupt
	}
	seq, kind := util.UnpackTrailer(trailer)
	return util.MakeInternalKey(nil, ukey, seq, kind), append([]byte(nil), value...), 8 + int(blen), nil
}

// sealed wraps body in the length/CRC header of an entry, so that only the
// body's own fields can be what a decoder refuses.
func sealed(body []byte) []byte {
	enc := util.PutFixed32(nil, uint32(len(body)))
	enc = util.PutFixed32(enc, util.MaskCRC(util.CRC(body)))
	return append(enc, body...)
}

// TestViewEntryRejects: one row per way an entry can be wrong, each refused
// with ErrCorrupt, and the shapes that are odd but legal accepted.
func TestViewEntryRejects(t *testing.T) {
	ik := util.MakeInternalKey(nil, []byte("key"), 5, util.KindValue)
	good := EncodeEntry(nil, ik, []byte("value"))
	flip := func(i int) []byte {
		b := append([]byte(nil), good...)
		b[i] ^= 0x40
		return b
	}
	withLength := func(n uint32) []byte {
		b := append([]byte(nil), good...)
		util.PutFixed32(b[:0], n)
		return b
	}
	body := func(klen, vlen uint64, rest string) []byte {
		b := util.PutUvarint(nil, klen)
		b = util.PutUvarint(b, vlen)
		return append(b, rest...)
	}
	for _, tc := range []struct {
		name string
		src  []byte
		ok   bool
	}{
		{"whole", good, true},
		{"followed by other bytes", append(append([]byte(nil), good...), 0xFF, 0xFF), true},
		{"empty key and value", EncodeEntry(nil, util.MakeInternalKey(nil, nil, 1, util.KindDelete), nil), true},
		{"body longer than its fields", sealed(body(1, 1, "trailer!kvjunk")), true},
		{"nothing", nil, false},
		{"half a length", good[:2], false},
		{"length without CRC", good[:4], false},
		{"header alone", good[:8], false},
		{"one byte short", good[:len(good)-1], false},
		{"unwritten space", make([]byte, 16), false},
		{"length past the source", withLength(uint32(len(good))), false},
		{"length of 2 GiB", withLength(1 << 31), false},
		{"flipped length", flip(0), false},
		{"flipped CRC", flip(5), false},
		{"flipped key length", flip(8), false},
		{"flipped trailer", flip(12), false},
		{"flipped value byte", flip(len(good) - 1), false},
		{"key runs past the body", sealed(body(40, 0, "trailer!k")), false},
		{"value runs past the body", sealed(body(1, 40, "trailer!kv")), false},
		{"key length overflows", sealed(body(1<<63, 1<<63, "trailer!kv")), false},
		{"trailer cut short", sealed(body(0, 0, "trail")), false},
		{"unterminated varint", sealed([]byte{0x80, 0x80, 0x80}), false},
	} {
		got, err := ViewEntry(tc.src)
		if (err == nil) != tc.ok || (err != nil && !errors.Is(err, util.ErrCorrupt)) {
			t.Errorf("%s: ViewEntry = %+v, %v; want ok=%v", tc.name, got, err, tc.ok)
		}
		if err != nil && (got.UKey != nil || got.Value != nil || got.Len != 0) {
			t.Errorf("%s: a refused entry still came back as %+v", tc.name, got)
		}
	}
}

// TestViewEntryMatchesReference holds the view to the decoder it replaced over
// valid entries and seeded mutations of them — truncations, bit flips,
// overwritten lengths: the two accept exactly the same inputs and, where they
// accept, agree on every field.
func TestViewEntryMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	accepted := 0
	for i := 0; i < 20000; i++ {
		key, value := make([]byte, rng.Intn(40)), make([]byte, rng.Intn(200))
		rng.Read(key)
		rng.Read(value)
		src := AppendEntry(nil, key, rng.Uint64(), value)
		switch rng.Intn(5) {
		case 0: // left whole
		case 1:
			src = src[:rng.Intn(len(src)+1)]
		case 2:
			src[rng.Intn(len(src))] ^= 1 << rng.Intn(8)
		case 3: // a body that lies about its lengths, under a CRC that is right
			body := append([]byte(nil), src[8:]...)
			body[rng.Intn(2)] = byte(rng.Intn(256))
			src = sealed(body)
		case 4:
			src = append(src, make([]byte, rng.Intn(16))...)
		}
		ik, val, n, refErr := decodeEntryRef(src)
		got, err := ViewEntry(src)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("input %x: ViewEntry says %v, the reference %v", src, err, refErr)
		}
		if err != nil {
			continue
		}
		accepted++
		if !got.Is(ik) || !bytes.Equal(got.InternalKey(nil), ik) || !bytes.Equal(got.Value, val) || got.Len != n ||
			got.Seq() != ik.Seq() || got.Kind() != ik.Kind() {
			t.Fatalf("input %x: view %+v, reference %q=%q (%d bytes)", src, got, ik, val, n)
		}
	}
	if accepted < 4000 || accepted > 16000 {
		t.Fatalf("%d of 20000 inputs decoded; the mutations are meant to split them", accepted)
	}
}

// TestOwnershipViewAliasesSource: a view copies nothing — its key and value
// are the source's bytes, so they change with the source, and taking one
// allocates nothing. Whoever keeps a key or value past the source copies it.
func TestOwnershipViewAliasesSource(t *testing.T) {
	src := AppendEntry(nil, []byte("key"), util.PackTrailer(9, util.KindValue), []byte("value"))
	e, err := ViewEntry(src)
	if err != nil {
		t.Fatal(err)
	}
	keep := append([]byte(nil), e.Value...)
	for i := range src {
		src[i] = 'x'
	}
	if string(e.UKey) != "xxx" || string(e.Value) != "xxxxx" || string(keep) != "value" {
		t.Fatalf("after overwriting the source the view reads %q=%q and the copy %q", e.UKey, e.Value, keep)
	}
}

func TestViewEntryAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	src := AppendEntry(nil, []byte("key-of-16-bytes!"), util.PackTrailer(9, util.KindValue), make([]byte, 64))
	ik := make([]byte, 0, 32)
	if n := testing.AllocsPerRun(100, func() {
		e, err := ViewEntry(src)
		if err != nil || !e.Is(e.InternalKey(ik)) {
			t.Fatal("view does not decode")
		}
	}); n != 0 {
		t.Fatalf("ViewEntry allocates %.0f objects, want 0", n)
	}
}
