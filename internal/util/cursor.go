package util

// Cursor reads forward through bytes that came back from media, where every
// length, count and offset is hostile until checked. It guarantees that no
// read passes the end of the slice; that a length or count is compared with
// the bytes left before it sizes anything (Bytes, Count); that no two media
// values are ever added, so nothing wraps (InExtent does the same for the
// caller's own extents); and that the first failure sticks: every later read
// returns a zero value and Err stays ErrCorrupt, so a decoder reads its whole
// record and checks once. A Cursor is a stack value and allocates nothing.
type Cursor struct {
	b      []byte
	failed bool
}

// NewCursor returns a cursor at the start of b. The slices it hands out alias b.
func NewCursor(b []byte) Cursor { return Cursor{b: b} }

// Bytes returns the next n bytes, or nil (and fails) when fewer remain.
func (c *Cursor) Bytes(n uint64) []byte {
	if c.failed || n > uint64(len(c.b)) {
		c.failed = true
		return nil
	}
	out := c.b[:n:n]
	c.b = c.b[n:]
	return out
}

// U8 reads one byte.
func (c *Cursor) U8() byte {
	if b := c.Bytes(1); len(b) == 1 {
		return b[0]
	}
	return 0
}

// U32 reads a little-endian uint32.
func (c *Cursor) U32() uint32 {
	if b := c.Bytes(4); len(b) == 4 {
		return Fixed32(b)
	}
	return 0
}

// U64 reads a little-endian uint64.
func (c *Cursor) U64() uint64 {
	if b := c.Bytes(8); len(b) == 8 {
		return Fixed64(b)
	}
	return 0
}

// Uvarint reads a LEB128 varint; a truncated or over-long one fails.
func (c *Cursor) Uvarint() uint64 {
	v, n, err := Uvarint(c.b)
	if c.failed || err != nil {
		c.failed = true
		return 0
	}
	c.b = c.b[n:]
	return v
}

// LengthPrefixed reads a varint length and that many bytes.
func (c *Cursor) LengthPrefixed() []byte { return c.Bytes(c.Uvarint()) }

// Count admits n, a count of records read from media, as a loop bound: it
// fails, returning 0, unless the bytes left could hold n records of at least
// minBytesEach (≥ 1) bytes, so the loop runs no longer than the input allows.
func (c *Cursor) Count(n uint64, minBytesEach int) int {
	if c.failed || n > uint64(len(c.b))/uint64(minBytesEach) {
		c.failed = true
		return 0
	}
	return int(n)
}

// Done reports whether every byte was consumed and no read failed.
func (c *Cursor) Done() bool { return !c.failed && len(c.b) == 0 }

// Err returns ErrCorrupt once any read has failed.
func (c *Cursor) Err() error {
	if c.failed {
		return ErrCorrupt
	}
	return nil
}

// InExtent reports whether [off, off+n) lies inside [0, size), without forming
// the sum: off and n may both come from media.
func InExtent(off, n, size uint64) bool { return n <= size && off <= size-n }
