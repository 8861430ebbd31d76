package main

import (
	"encoding/binary"
	"math"
	"math/bits"
)

// The benchmark's inputs come from these generators only; the engine sees
// generated keys and values, never the seed.

// rng is xorshift64*: small, fast, and good enough for workload generation.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	s := mix64(seed + 0x9e3779b97f4a7c15)
	if s == 0 {
		s = 0x9e3779b97f4a7c15
	}
	return &rng{s: s}
}

func (r *rng) next() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// intn returns a value in [0, n).
func (r *rng) intn(n uint64) uint64 {
	hi, _ := bits.Mul64(r.next(), n)
	return hi
}

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// mix64 is the splitmix64 finalizer, a bijection on uint64.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// zipf draws ranks with P(rank k) ∝ 1/(k+1)^theta (Gray et al.'s method, as
// in YCSB) and scatters them over the item space so hot items are not
// neighbours in key order.
type zipf struct {
	n          uint64
	alpha      float64
	zetan, eta float64
	zeta2      float64 // cumulative mass of ranks 0 and 1, unnormalised
}

func newZipf(n uint64, theta float64) *zipf {
	z := &zipf{n: n, alpha: 1 / (1 - theta)}
	for i := uint64(1); i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), theta)
	}
	z.zeta2 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// rank returns a popularity rank in [0, n); 0 is the hottest.
func (z *zipf) rank(r *rng) uint64 {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.zeta2 {
		return 1
	}
	k := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// item returns the scrambled item index for a drawn rank.
func (z *zipf) item(r *rng) uint64 { return mix64(z.rank(r)) % z.n }

// permutation returns [0, n) in a seeded random order (Fisher–Yates).
func permutation(n int, r *rng) []uint32 {
	p := make([]uint32, n)
	for i := range p {
		p[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := r.intn(uint64(i + 1))
		p[i], p[j] = p[j], p[i]
	}
	return p
}

const (
	keyLen   = 16
	valueLen = 64
)

// keyspace maps item indices to 16-byte keys: the lowercase hex of a seeded
// bijective hash of the index, so keys are unique, their byte order is the
// numeric order of the hash, and that order is unrelated to the index.
type keyspace struct{ salt uint64 }

func newKeyspace(seed uint64) keyspace { return keyspace{salt: mix64(seed ^ 0x6b657973)} }

func (ks keyspace) hash(i uint64) uint64 { return mix64(i ^ ks.salt) }

const hexDigits = "0123456789abcdef"

// putKey writes the key for hash h into dst[:16].
func putKey(dst []byte, h uint64) []byte {
	dst = dst[:keyLen]
	for i := keyLen - 1; i >= 0; i-- {
		dst[i] = hexDigits[h&15]
		h >>= 4
	}
	return dst
}

// parseKey recovers the hash a key encodes.
func parseKey(k []byte) (uint64, bool) {
	if len(k) != keyLen {
		return 0, false
	}
	var h uint64
	for _, c := range k {
		switch {
		case c >= '0' && c <= '9':
			h = h<<4 | uint64(c-'0')
		case c >= 'a' && c <= 'f':
			h = h<<4 | uint64(c-'a'+10)
		default:
			return 0, false
		}
	}
	return h, true
}

// putValue writes the 64-byte value for (key hash, version): the hash, the
// version, and 48 filler bytes derived from both, so a reader can tell a
// value that belongs to another key, another version, or was torn.
func putValue(dst []byte, h, ver uint64) []byte {
	dst = dst[:valueLen]
	binary.LittleEndian.PutUint64(dst, h)
	binary.LittleEndian.PutUint64(dst[8:], ver)
	x := mix64(h ^ ver*0x9e3779b97f4a7c15)
	for off := 16; off < valueLen; off += 8 {
		x = mix64(x + uint64(off))
		binary.LittleEndian.PutUint64(dst[off:], x)
	}
	return dst
}

// checkValue verifies v against the key hash it was read under and returns
// the version it carries.
func checkValue(v []byte, h uint64) (ver uint64, ok bool) {
	if len(v) != valueLen || binary.LittleEndian.Uint64(v) != h {
		return 0, false
	}
	ver = binary.LittleEndian.Uint64(v[8:])
	x := mix64(h ^ ver*0x9e3779b97f4a7c15)
	for off := 16; off < valueLen; off += 8 {
		x = mix64(x + uint64(off))
		if binary.LittleEndian.Uint64(v[off:]) != x {
			return 0, false
		}
	}
	return ver, true
}
