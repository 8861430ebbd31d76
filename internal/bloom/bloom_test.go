package bloom

import (
	"bytes"
	"fmt"
	"testing"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(10)
	var keys [][]byte
	for i := 0; i < 10000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key%08d", i)))
	}
	filter := f.Build(keys)
	for _, k := range keys {
		if !MayContain(filter, k) {
			t.Fatalf("false negative for %s", k)
		}
	}
}

func TestFalsePositiveRate(t *testing.T) {
	f := New(10)
	var keys [][]byte
	for i := 0; i < 10000; i++ {
		keys = append(keys, []byte(fmt.Sprintf("key%08d", i)))
	}
	filter := f.Build(keys)
	fp := 0
	const probes = 10000
	for i := 0; i < probes; i++ {
		if MayContain(filter, []byte(fmt.Sprintf("absent%08d", i))) {
			fp++
		}
	}
	// 10 bits/key should give ~1%; allow generous slack.
	if rate := float64(fp) / probes; rate > 0.03 {
		t.Fatalf("false positive rate %.3f too high", rate)
	}
}

func TestEmptyKeySet(t *testing.T) {
	f := New(10)
	filter := f.Build(nil)
	if MayContain(filter, []byte("anything")) {
		t.Fatal("empty filter should reject")
	}
}

func TestDegenerateFilters(t *testing.T) {
	if !MayContain(nil, []byte("k")) {
		t.Fatal("nil filter must not exclude")
	}
	if !MayContain([]byte{0}, []byte("k")) {
		t.Fatal("1-byte filter must not exclude")
	}
	// k > 30 marks a future encoding: must not exclude.
	if !MayContain([]byte{0, 0, 0, 0, 31}, []byte("k")) {
		t.Fatal("reserved k must not exclude")
	}
}

func TestClampedParameters(t *testing.T) {
	f := New(0) // clamped to 1 bit/key
	filter := f.Build([][]byte{[]byte("a")})
	if !MayContain(filter, []byte("a")) {
		t.Fatal("clamped filter lost its key")
	}
}

func TestBuildHashesMatchesBuild(t *testing.T) {
	keys := make([][]byte, 1000)
	hashes := make([]uint32, len(keys))
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%06d", i))
		hashes[i] = Hash(keys[i])
	}
	f := New(10)
	if !bytes.Equal(f.Build(keys), f.BuildHashes(hashes)) {
		t.Fatal("a filter built from the keys' hashes differs from one built from the keys")
	}
}
