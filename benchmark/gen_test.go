package main

import (
	"bytes"
	"math"
	"sort"
	"testing"
)

func TestRNGRepeatsPerSeed(t *testing.T) {
	a, b, c := newRNG(7), newRNG(7), newRNG(8)
	same := true
	for i := 0; i < 1000; i++ {
		x := a.next()
		if x != b.next() {
			t.Fatal("same seed, different stream")
		}
		same = same && x == c.next()
	}
	if same {
		t.Fatal("different seeds, same stream")
	}
	for i := 0; i < 1000; i++ {
		if v := a.intn(10); v >= 10 {
			t.Fatalf("intn(10) = %d", v)
		}
		if f := a.float(); f < 0 || f >= 1 {
			t.Fatalf("float() = %g", f)
		}
	}
}

func TestPermutationIsOne(t *testing.T) {
	p := permutation(5000, newRNG(3))
	q := permutation(5000, newRNG(3))
	seen := make([]bool, len(p))
	inPlace := 0
	for i, v := range p {
		if v != q[i] {
			t.Fatal("same seed, different order")
		}
		if seen[v] {
			t.Fatalf("%d appears twice", v)
		}
		seen[v] = true
		if int(v) == i {
			inPlace++
		}
	}
	if inPlace > 50 {
		t.Fatalf("%d of 5000 elements did not move", inPlace)
	}
}

// The hottest 1 % of items must carry the mass the zipfian law gives them.
func TestZipfTopMass(t *testing.T) {
	const n, theta, draws = 100_000, 0.99, 400_000
	z := newZipf(n, theta)
	var want float64
	for k := 1; k <= n/100; k++ {
		want += 1 / math.Pow(float64(k), theta)
	}
	want /= z.zetan
	g := newRNG(11)
	top, items := 0, map[uint64]bool{}
	for i := 0; i < draws; i++ {
		r := z.rank(g)
		if r >= n {
			t.Fatalf("rank %d out of range", r)
		}
		if r < n/100 {
			top++
		}
		items[mix64(r)%n] = true
	}
	if got := float64(top) / draws; math.Abs(got-want) > 0.02 {
		t.Fatalf("top 1 %% of ranks drew %.3f of the mass, the law says %.3f", got, want)
	}
	if len(items) < n/10 {
		t.Fatalf("only %d distinct items drawn", len(items))
	}
}

func TestKeysAndValues(t *testing.T) {
	ks, other := newKeyspace(1), newKeyspace(2)
	if ks.hash(5) == other.hash(5) {
		t.Fatal("keys do not depend on the seed")
	}
	hashes := make([]uint64, 2000)
	keys := make([][]byte, len(hashes))
	for i := range hashes {
		hashes[i] = ks.hash(uint64(i))
		keys[i] = putKey(make([]byte, keyLen), hashes[i])
		if h, ok := parseKey(keys[i]); !ok || h != hashes[i] {
			t.Fatalf("key %q parses to %x, want %x", keys[i], h, hashes[i])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	sort.Slice(hashes, func(i, j int) bool { return hashes[i] < hashes[j] })
	for i := range keys {
		if h, _ := parseKey(keys[i]); h != hashes[i] {
			t.Fatal("byte order of keys is not numeric order of hashes")
		}
		if i > 0 && hashes[i] == hashes[i-1] {
			t.Fatal("two indices share a key")
		}
	}
	if _, ok := parseKey([]byte("not-a-key")); ok {
		t.Fatal("parseKey accepted garbage")
	}

	v := putValue(make([]byte, valueLen), 42, 7)
	if ver, ok := checkValue(v, 42); !ok || ver != 7 {
		t.Fatalf("checkValue = %d, %v", ver, ok)
	}
	if _, ok := checkValue(v, 43); ok {
		t.Fatal("a value passed under another key")
	}
	for _, off := range []int{9, 20, 63} {
		w := append([]byte(nil), v...)
		w[off] ^= 1
		if ver, ok := checkValue(w, 42); ok && ver == 7 {
			t.Fatalf("a flipped bit at byte %d went unnoticed", off)
		}
	}
	if _, ok := checkValue(v[:valueLen-1], 42); ok {
		t.Fatal("a short value passed")
	}
}
