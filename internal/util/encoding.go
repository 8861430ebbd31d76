// Package util provides low-level encoding, hashing, and key-manipulation
// helpers shared by every storage module in the repository. The formats follow
// the LevelDB wire conventions (little-endian fixed integers, LEB128 varints,
// internal keys carrying a packed sequence/type trailer) so that any module
// can decode any other module's bytes.
package util

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt is returned when a decoder encounters bytes that cannot be a
// valid encoding (truncated varint, bad CRC, impossible length, ...).
var ErrCorrupt = errors.New("util: corrupt encoding")

// PutUvarint appends x to dst as a LEB128 varint and returns the extended
// slice.
func PutUvarint(dst []byte, x uint64) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], x)
	return append(dst, buf[:n]...)
}

// UvarintLen returns the number of bytes PutUvarint appends for x.
func UvarintLen(x uint64) int {
	n := 1
	for ; x >= 0x80; x >>= 7 {
		n++
	}
	return n
}

// Uvarint decodes a varint from src, returning the value and the number of
// bytes consumed. It returns ErrCorrupt when src is truncated or malformed.
func Uvarint(src []byte) (uint64, int, error) {
	v, n := binary.Uvarint(src)
	if n <= 0 {
		return 0, 0, ErrCorrupt
	}
	return v, n, nil
}

// PutFixed32 appends v to dst in little-endian order.
func PutFixed32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Fixed32 decodes a little-endian uint32 from the first four bytes of src.
func Fixed32(src []byte) uint32 {
	return binary.LittleEndian.Uint32(src)
}

// PutFixed64 appends v to dst in little-endian order.
func PutFixed64(dst []byte, v uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	return append(dst, buf[:]...)
}

// Fixed64 decodes a little-endian uint64 from the first eight bytes of src.
func Fixed64(src []byte) uint64 {
	return binary.LittleEndian.Uint64(src)
}

// PutLengthPrefixed appends a varint length followed by the bytes themselves.
func PutLengthPrefixed(dst, b []byte) []byte {
	dst = PutUvarint(dst, uint64(len(b)))
	return append(dst, b...)
}

// Sized returns b resized to n bytes, allocating only when its capacity falls
// short (then at least doubling it). What the bytes hold is unspecified: it is
// for scratch buffers a caller fills before reading.
func Sized(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n, max(n, 2*cap(b)))
	}
	return b[:n]
}
