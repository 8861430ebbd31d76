// Package bench is the evaluation harness: db_bench-style workload drivers,
// a YCSB core, a multi-threaded runner measuring virtual-time throughput and
// latency breakdowns, experiment-scale sizing of the catalogue's engines
// (internal/engines), and the evaluation section as data: Figures is the
// registry of the paper's figures, Figure.Run the one grid runner behind every
// table, UpdateDoc the generator of EXPERIMENTS.md. cmd/experiments is a loop
// over the registry.
package bench

import (
	"fmt"
	"math"

	"cachekv/internal/hw/sim"
	"cachekv/internal/util"
)

// KeyGen produces the i-th key of a workload. Implementations are stateless
// with respect to i, so concurrent threads can partition the op space.
type KeyGen interface {
	// Key writes key number i into dst (reusing its storage) and returns it.
	Key(dst []byte, i int64, rng *sim.RNG) []byte
}

// formatKey renders db_bench's fixed-width 16-byte numeric key.
func formatKey(dst []byte, n uint64) []byte {
	dst = dst[:0]
	return append(dst, fmt.Sprintf("%016d", n%10000000000000000)...)
}

// recordKey maps a record rank to its key: a 64-bit bijective scramble so
// ranks spread across the key space, shared by every distribution so load
// and access phases agree on which keys exist.
func recordKey(dst []byte, rank int64) []byte {
	return formatKey(dst, util.Mix64(uint64(rank)))
}

// LoadKeys inserts record 0,1,2,... in scrambled-key order (the YCSB load
// phase: each record exactly once).
type LoadKeys struct{}

// Key implements KeyGen.
func (LoadKeys) Key(dst []byte, i int64, _ *sim.RNG) []byte { return recordKey(dst, i) }

// SequentialKeys generates keys 0,1,2,... (db_bench fillseq/readseq).
type SequentialKeys struct{}

// Key implements KeyGen.
func (SequentialKeys) Key(dst []byte, i int64, _ *sim.RNG) []byte {
	return formatKey(dst, uint64(i))
}

// UniformKeys draws keys uniformly from a space of N keys (db_bench
// fillrandom/readrandom). The i-th draw is deterministic given the seed.
type UniformKeys struct{ N int64 }

// Key implements KeyGen.
func (u UniformKeys) Key(dst []byte, i int64, _ *sim.RNG) []byte {
	// Deterministic per-op hash: the same op index always picks the same
	// rank, so fill-then-read phases agree without sharing RNG state.
	rank := util.Mix64(uint64(i)*0x9E3779B97F4A7C15) % uint64(u.N)
	return recordKey(dst, int64(rank))
}

// ZipfianKeys draws from a scrambled zipfian distribution with the YCSB
// constant (theta = 0.99), the standard Gray et al. generator.
type ZipfianKeys struct {
	N     int64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
}

// NewZipfian builds a zipfian generator over n keys with theta = 0.99.
func NewZipfian(n int64) *ZipfianKeys {
	const theta = 0.99
	z := &ZipfianKeys{N: n, theta: theta}
	z.zetan = zetaStatic(n, theta)
	z.zeta2 = zetaStatic(2, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zetaStatic(n int64, theta float64) float64 {
	sum := 0.0
	for i := int64(1); i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// next draws the zipfian rank for u in [0,1).
func (z *ZipfianKeys) next(u float64) int64 {
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	return int64(float64(z.N) * math.Pow(z.eta*u-z.eta+1, z.alpha))
}

// Key implements KeyGen. Ranks are scrambled with a hash so hot keys spread
// over the key space (YCSB's "scrambled zipfian").
func (z *ZipfianKeys) Key(dst []byte, i int64, rng *sim.RNG) []byte {
	rank := z.next(rng.Float64())
	if rank >= z.N {
		rank = z.N - 1
	}
	item := util.Mix64(uint64(rank)) % uint64(z.N) // scrambled zipfian
	return recordKey(dst, int64(item))
}

// LatestKeys models YCSB's "latest" distribution: reads skew toward the most
// recently inserted keys. The insertion frontier advances as ops execute.
type LatestKeys struct {
	N    int64
	zipf *ZipfianKeys
}

// NewLatest builds a latest-distribution generator over an initial n keys.
func NewLatest(n int64) *LatestKeys {
	return &LatestKeys{N: n, zipf: NewZipfian(n)}
}

// Key implements KeyGen: key = frontier - zipfian_offset.
func (l *LatestKeys) Key(dst []byte, i int64, rng *sim.RNG) []byte {
	frontier := l.N + i
	off := l.zipf.next(rng.Float64())
	k := frontier - off
	if k < 0 {
		k = 0
	}
	return recordKey(dst, k)
}

// ValueGen produces deterministic value payloads of a fixed size.
type ValueGen struct {
	size int
	buf  []byte
}

// NewValueGen creates a generator for size-byte values.
func NewValueGen(size int) *ValueGen {
	return &ValueGen{size: size, buf: make([]byte, size)}
}

// Value fills the value for op i. The returned slice is reused across calls.
func (v *ValueGen) Value(i int64) []byte {
	// Cheap deterministic fill; compressibility is irrelevant here (no
	// compression in any engine), so a repeating stamp suffices.
	stamp := byte(i)
	for j := range v.buf {
		v.buf[j] = stamp + byte(j)
	}
	return v.buf
}
