package util

import (
	"bytes"
	"testing"
)

// TestCursor holds the cursor to its edges: each case runs reads over src and
// names what they must return, whether the cursor has failed afterwards, and
// how many bytes a working cursor has left.
func TestCursor(t *testing.T) {
	tenByteOverflow := bytes.Repeat([]byte{0xff}, 10) // 70 bits of payload
	varint := func(v uint64) []byte { return PutUvarint(nil, v) }
	cases := []struct {
		name string
		src  []byte
		read func(c *Cursor) any
		want any
		fail bool
		left uint64
	}{
		{"empty U8", nil, func(c *Cursor) any { return c.U8() }, byte(0), true, 0},
		{"empty U32", nil, func(c *Cursor) any { return c.U32() }, uint32(0), true, 0},
		{"empty U64", nil, func(c *Cursor) any { return c.U64() }, uint64(0), true, 0},
		{"empty Uvarint", nil, func(c *Cursor) any { return c.Uvarint() }, uint64(0), true, 0},
		{"empty LengthPrefixed", nil, func(c *Cursor) any { return c.LengthPrefixed() }, []byte(nil), true, 0},
		{"empty Bytes(0)", nil, func(c *Cursor) any { return len(c.Bytes(0)) }, 0, false, 0},
		{"empty is Done", nil, func(c *Cursor) any { return c.Done() }, true, false, 0},
		{"fixed widths", []byte{7, 1, 0, 0, 0, 2, 0, 0, 0, 0, 0, 0, 0, 9}, func(c *Cursor) any {
			return [3]uint64{uint64(c.U8()), uint64(c.U32()), c.U64()}
		}, [3]uint64{7, 1, 2}, false, 1},
		{"U32 of three bytes", []byte{1, 2, 3}, func(c *Cursor) any { return c.U32() }, uint32(0), true, 0},
		{"U64 of seven bytes", make([]byte, 7), func(c *Cursor) any { return c.U64() }, uint64(0), true, 0},
		{"max varint", varint(^uint64(0)), func(c *Cursor) any { return c.Uvarint() }, ^uint64(0), false, 0},
		{"truncated varint", varint(1 << 40)[:3], func(c *Cursor) any { return c.Uvarint() }, uint64(0), true, 0},
		{"10-byte varint overflow", tenByteOverflow, func(c *Cursor) any { return c.Uvarint() }, uint64(0), true, 0},
		{"Bytes(remaining)", []byte("abc"), func(c *Cursor) any { return string(c.Bytes(3)) }, "abc", false, 0},
		{"Bytes(remaining+1)", []byte("abc"), func(c *Cursor) any { return c.Bytes(4) }, []byte(nil), true, 0},
		{"Bytes(2^63)", []byte("abc"), func(c *Cursor) any { return c.Bytes(1 << 63) }, []byte(nil), true, 0},
		{"Bytes(2^64-1)", []byte("abc"), func(c *Cursor) any { return c.Bytes(^uint64(0)) }, []byte(nil), true, 0},
		{"Bytes cannot be appended into its neighbour", []byte("abcd"), func(c *Cursor) any {
			_ = append(c.Bytes(2), 'X')
			return string(c.Bytes(2))
		}, "cd", false, 0},
		{"length prefix past the end", append(varint(1<<62), 'x'), func(c *Cursor) any { return c.LengthPrefixed() }, []byte(nil), true, 0},
		{"length prefix", append(varint(2), "hey"...), func(c *Cursor) any { return string(c.LengthPrefixed()) }, "he", false, 1},
		{"Count that fits", make([]byte, 12), func(c *Cursor) any { return c.Count(3, 4) }, 3, false, 12},
		{"Count one too many", make([]byte, 12), func(c *Cursor) any { return c.Count(4, 4) }, 0, true, 0},
		{"Count times min size wraps", make([]byte, 12), func(c *Cursor) any { return c.Count(1<<62, 4) }, 0, true, 0},
		{"Count 2^64-1 of one byte", make([]byte, 12), func(c *Cursor) any { return c.Count(^uint64(0), 1) }, 0, true, 0},
		{"Count zero of nothing", nil, func(c *Cursor) any { return c.Count(0, 8) }, 0, false, 0},
		{"leftover bytes are not Done", []byte{1, 2}, func(c *Cursor) any { c.U8(); return c.Done() }, false, false, 1},
		{"reads after the first error are zero", append([]byte{1}, make([]byte, 40)...), func(c *Cursor) any {
			c.U8()
			c.Bytes(41) // the first error, with 40 bytes still there
			return [6]uint64{uint64(c.U8()), uint64(c.U32()), c.U64(), c.Uvarint(),
				uint64(len(c.Bytes(1)) + len(c.LengthPrefixed())), uint64(c.Count(1, 1))}
		}, [6]uint64{}, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewCursor(tc.src)
			got := tc.read(&c)
			if gb, ok := got.([]byte); ok {
				if gb != nil {
					t.Fatalf("read = %q, want nil", gb)
				}
			} else if got != tc.want {
				t.Fatalf("read = %v, want %v", got, tc.want)
			}
			if failed := c.Err() != nil; failed != tc.fail {
				t.Fatalf("Err = %v, want failed %v", c.Err(), tc.fail)
			}
			if tc.fail {
				if c.Err() != ErrCorrupt || c.Done() || c.Bytes(0) != nil {
					t.Fatalf("failed cursor: Err %v, Done %v; want ErrCorrupt for good", c.Err(), c.Done())
				}
			} else if c.Bytes(tc.left) == nil && tc.left > 0 || !c.Done() {
				t.Fatalf("cursor does not have exactly %d bytes left", tc.left)
			}
		})
	}
}

func TestInExtent(t *testing.T) {
	const max = ^uint64(0)
	for _, tc := range []struct {
		off, n, size uint64
		want         bool
	}{
		{0, 0, 0, true}, {0, 10, 10, true}, {10, 0, 10, true}, {3, 7, 10, true},
		{3, 8, 10, false}, {11, 0, 10, false}, {0, 11, 10, false},
		{max - 7, 16, 100, false}, {16, max - 7, 100, false}, {max, max, max, false},
		{1 << 63, 1 << 63, 100, false}, {0, max, max, true},
	} {
		if got := InExtent(tc.off, tc.n, tc.size); got != tc.want {
			t.Errorf("InExtent(%d, %d, %d) = %v, want %v", tc.off, tc.n, tc.size, got, tc.want)
		}
	}
}

// TestCursorStaysOnTheStack is the per-operation budget of kvstore.ViewEntry
// and sstable's index-value handles: decoding through a cursor allocates nothing.
func TestCursorStaysOnTheStack(t *testing.T) {
	src := PutLengthPrefixed(PutFixed64(PutUvarint(nil, 300), 9), []byte("payload"))
	var sink uint64
	if n := testing.AllocsPerRun(100, func() {
		c := NewCursor(src)
		sink += c.Uvarint() + c.U64() + uint64(len(c.LengthPrefixed()))
		if !c.Done() {
			t.Fatal(c.Err())
		}
	}); n != 0 {
		t.Fatalf("a cursor decode allocates %v times, want 0", n)
	}
}
