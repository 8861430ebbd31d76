package util

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestUvarintRoundTrip(t *testing.T) {
	cases := []uint64{0, 1, 127, 128, 300, 1 << 20, 1<<63 - 1, ^uint64(0)}
	for _, v := range cases {
		b := PutUvarint(nil, v)
		got, n, err := Uvarint(b)
		if err != nil {
			t.Fatalf("Uvarint(%d): %v", v, err)
		}
		if got != v || n != len(b) || UvarintLen(v) != len(b) {
			t.Fatalf("Uvarint(%d) = %d, %d, UvarintLen %d; want %d, %d", v, got, n, UvarintLen(v), v, len(b))
		}
	}
}

func TestUvarintProperty(t *testing.T) {
	f := func(v uint64) bool {
		b := PutUvarint(nil, v)
		got, n, err := Uvarint(b)
		return err == nil && got == v && n == len(b) && UvarintLen(v) == len(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestUvarintTruncated(t *testing.T) {
	b := PutUvarint(nil, 1<<40)
	for i := 0; i < len(b); i++ {
		if _, _, err := Uvarint(b[:i]); err == nil {
			t.Fatalf("Uvarint of %d-byte prefix should fail", i)
		}
	}
}

func TestFixedRoundTrip(t *testing.T) {
	f32 := func(v uint32) bool { return Fixed32(PutFixed32(nil, v)) == v }
	f64 := func(v uint64) bool { return Fixed64(PutFixed64(nil, v)) == v }
	if err := quick.Check(f32, nil); err != nil {
		t.Fatal(err)
	}
	if err := quick.Check(f64, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLengthPrefixedRoundTrip(t *testing.T) {
	f := func(payload []byte, suffix []byte) bool {
		enc := PutLengthPrefixed(nil, payload)
		c := NewCursor(append(enc, suffix...))
		got := c.LengthPrefixed()
		return c.Err() == nil && bytes.Equal(got, payload) && bytes.Equal(c.Bytes(uint64(len(suffix))), suffix) && c.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLengthPrefixedCorrupt(t *testing.T) {
	enc := PutLengthPrefixed(nil, []byte("hello"))
	for _, src := range [][]byte{enc[:3], nil} {
		c := NewCursor(src)
		if got := c.LengthPrefixed(); got != nil || c.Err() != ErrCorrupt {
			t.Fatalf("LengthPrefixed(%q) = %q, %v; want nil, ErrCorrupt", src, got, c.Err())
		}
	}
}

func TestCRCMasking(t *testing.T) {
	f := func(b []byte) bool {
		c := CRC(b)
		return UnmaskCRC(MaskCRC(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// Masked CRC must differ from the raw CRC (that is its purpose).
	if c := CRC([]byte("abc")); MaskCRC(c) == c {
		t.Fatal("MaskCRC is the identity")
	}
}

func TestHash32Deterministic(t *testing.T) {
	a := Hash32([]byte("the quick brown fox"), 0xbc9f1d34)
	b := Hash32([]byte("the quick brown fox"), 0xbc9f1d34)
	if a != b {
		t.Fatal("Hash32 not deterministic")
	}
	if Hash32([]byte("a"), 1) == Hash32([]byte("b"), 1) {
		t.Fatal("suspicious collision on single bytes")
	}
}

func TestHash64Avalanche(t *testing.T) {
	// Flipping one input bit should change many output bits on average.
	base := Hash64([]byte("keyspace-0000001"))
	diff := Hash64([]byte("keyspace-0000002"))
	x := base ^ diff
	bits := 0
	for x != 0 {
		bits += int(x & 1)
		x >>= 1
	}
	if bits < 10 {
		t.Fatalf("weak avalanche: only %d differing bits", bits)
	}
}
