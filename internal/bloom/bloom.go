// Package bloom implements LevelDB's bloom filter policy: double hashing
// derived from a single 32-bit hash, k probes chosen from bitsPerKey. SSTable
// readers consult a per-table filter block to skip tables that cannot contain
// a key, which matters most for CacheKV's L0 where tables overlap.
package bloom

import "cachekv/internal/util"

// Filter builds and queries bloom filter bit arrays.
type Filter struct {
	bitsPerKey int
	k          int
}

// New creates a policy with the given bits per key (10 is LevelDB's default,
// ~1% false positive rate).
func New(bitsPerKey int) *Filter {
	if bitsPerKey < 1 {
		bitsPerKey = 1
	}
	k := int(float64(bitsPerKey) * 0.69) // ln(2)
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bitsPerKey: bitsPerKey, k: k}
}

// Hash is the 32-bit key hash every probe position derives from.
func Hash(key []byte) uint32 { return util.Hash32(key, 0xbc9f1d34) }

// Build returns the filter bytes for keys. The final byte records k so
// MayContain works with filters built under a different policy.
func (f *Filter) Build(keys [][]byte) []byte {
	out, bits := f.empty(len(keys))
	for _, key := range keys {
		f.set(out, bits, Hash(key))
	}
	return out
}

// BuildHashes is Build over the keys' Hash values: a table writer keeps four
// bytes per key until the filter is built instead of a copy of the key.
func (f *Filter) BuildHashes(hashes []uint32) []byte {
	out, bits := f.empty(len(hashes))
	for _, h := range hashes {
		f.set(out, bits, h)
	}
	return out
}

// empty returns a zeroed filter sized for n keys and its bit count.
func (f *Filter) empty(n int) (out []byte, bits uint32) {
	nBits := n * f.bitsPerKey
	if nBits < 64 {
		nBits = 64
	}
	nBytes := (nBits + 7) / 8
	out = make([]byte, nBytes+1)
	out[nBytes] = byte(f.k)
	return out, uint32(nBytes * 8)
}

// set turns on the k probe bits of the key hashing to h.
func (f *Filter) set(out []byte, bits, h uint32) {
	delta := h>>17 | h<<15
	for j := 0; j < f.k; j++ {
		pos := h % bits
		out[pos/8] |= 1 << (pos % 8)
		h += delta
	}
}

// MayContain reports whether key may be in the set filter was built from.
// False positives are possible; false negatives are not.
func MayContain(filter, key []byte) bool {
	if len(filter) < 2 {
		return true // degenerate filter: cannot exclude anything
	}
	bits := (len(filter) - 1) * 8
	k := int(filter[len(filter)-1])
	if k > 30 {
		return true // reserved for future encodings
	}
	h := Hash(key)
	delta := h>>17 | h<<15
	for j := 0; j < k; j++ {
		pos := h % uint32(bits)
		if filter[pos/8]&(1<<(pos%8)) == 0 {
			return false
		}
		h += delta
	}
	return true
}
