package util

import (
	"bytes"
	"fmt"
)

// ValueKind distinguishes live values from tombstones in internal keys. The
// numeric values match LevelDB so that ordering (deletes sort after puts at
// the same sequence) is preserved by the packed trailer comparison.
type ValueKind uint8

const (
	// KindDelete marks a tombstone.
	KindDelete ValueKind = 0
	// KindValue marks a live value.
	KindValue ValueKind = 1
	// KindRangeDel marks a range tombstone: the internal key carries the
	// start user key, the entry's value holds the exclusive end key. The
	// trailer value 2 makes a range tombstone sort *before* a point write at
	// the same sequence (trailers order descending), but coverage is decided
	// by sequence alone: a range tombstone hides versions with a strictly
	// smaller sequence, so an equal-seq point write survives.
	KindRangeDel ValueKind = 2
)

// MaxSequence is the largest representable sequence number (56 bits, as in
// LevelDB: the trailer packs seq<<8 | kind into a uint64).
const MaxSequence = uint64(1)<<56 - 1

// PackTrailer combines a sequence number and kind into the 8-byte internal
// key trailer.
func PackTrailer(seq uint64, kind ValueKind) uint64 {
	return seq<<8 | uint64(kind)
}

// UnpackTrailer splits a trailer into sequence number and kind.
func UnpackTrailer(t uint64) (uint64, ValueKind) {
	return t >> 8, ValueKind(t & 0xff)
}

// InternalKey is a user key with an appended 8-byte trailer holding the
// sequence number and value kind. Internal keys order by user key ascending,
// then by sequence number *descending*, so the freshest version of a key is
// encountered first during iteration.
type InternalKey []byte

// MakeInternalKey builds an internal key by appending the packed trailer to
// the user key, reusing dst's backing array when possible.
func MakeInternalKey(dst []byte, ukey []byte, seq uint64, kind ValueKind) InternalKey {
	if n := len(ukey) + 8; cap(dst) < n {
		dst = make([]byte, 0, n) // one allocation, not one per append
	}
	dst = append(dst[:0], ukey...)
	return PutFixed64(dst, PackTrailer(seq, kind))
}

// UserKey returns the user-key prefix of an internal key.
func (ik InternalKey) UserKey() []byte { return ik[:len(ik)-8] }

// Trailer returns the packed sequence/kind trailer.
func (ik InternalKey) Trailer() uint64 { return Fixed64(ik[len(ik)-8:]) }

// Seq returns the sequence number embedded in the internal key.
func (ik InternalKey) Seq() uint64 { s, _ := UnpackTrailer(ik.Trailer()); return s }

// Kind returns the value kind embedded in the internal key.
func (ik InternalKey) Kind() ValueKind { _, k := UnpackTrailer(ik.Trailer()); return k }

// Valid reports whether ik is long enough to carry a trailer.
func (ik InternalKey) Valid() bool { return len(ik) >= 8 }

// String renders the internal key for debugging.
func (ik InternalKey) String() string {
	if !ik.Valid() {
		return fmt.Sprintf("badikey(%q)", []byte(ik))
	}
	return fmt.Sprintf("%q@%d#%d", ik.UserKey(), ik.Seq(), ik.Kind())
}

// CompareInternal orders internal keys: user key ascending, then trailer
// descending (higher sequence numbers sort first).
func CompareInternal(a, b InternalKey) int {
	if c := bytes.Compare(a.UserKey(), b.UserKey()); c != 0 {
		return c
	}
	at, bt := a.Trailer(), b.Trailer()
	switch {
	case at > bt:
		return -1
	case at < bt:
		return 1
	default:
		return 0
	}
}
