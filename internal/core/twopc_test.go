package core

import (
	"bytes"
	"runtime"
	"testing"

	"cachekv/internal/util"
)

// samplePortion is a prepare record's payload with every field in use: a put,
// a delete (no value) and an op with an empty key.
func samplePortion() *shardPortion {
	return &shardPortion{shard: 3, ops: []batchOp{
		{key: []byte("apple"), value: []byte("red"), kind: util.KindValue, seq: 41},
		{key: []byte("pear"), kind: util.KindDelete, seq: 42},
		{value: []byte("v"), kind: util.KindValue, seq: 1 << 55},
	}}
}

// The two-phase records are fixed-width, so a record decodes only if encoding
// the result gives the record back; everything else — a torn tail, a count the
// record cannot hold, a length past its end, bytes left over — is refused.
func TestTwoPCRecords(t *testing.T) {
	prep, commit := encodePrepare(77, samplePortion()), encodeCommit(77)
	if p, id, ok := decodePrepare(prep); !ok || id != 77 || !bytes.Equal(encodePrepare(id, p), prep) {
		t.Fatalf("decodePrepare(encodePrepare) = %+v, %d, %v", p, id, ok)
	}
	if id, ok := decodeCommit(commit); !ok || id != 77 {
		t.Fatalf("decodeCommit(encodeCommit(77)) = %d, %v", id, ok)
	}
	hugeCount := append([]byte(nil), prep...)
	copy(hugeCount[13:], []byte{0xff, 0xff, 0xff, 0xff}) // nops
	hugeKey := append([]byte(nil), prep...)
	copy(hugeKey[17+9:], []byte{0xff, 0xff, 0xff, 0xff}) // first op's klen
	for name, rec := range map[string][]byte{
		"empty": nil, "torn prepare": prep[:len(prep)-1], "trailing byte": append(prep[:len(prep):len(prep)], 0),
		"commit as prepare": commit, "nops 2^32-1": hugeCount, "klen 2^32-1": hugeKey,
	} {
		if p, _, ok := decodePrepare(rec); ok {
			t.Errorf("decodePrepare(%s) = %+v, want refused", name, p)
		}
	}
	for name, rec := range map[string][]byte{
		"empty": nil, "torn commit": commit[:8], "trailing byte": append(commit[:9:9], 0), "prepare as commit": prep,
	} {
		if id, ok := decodeCommit(rec); ok {
			t.Errorf("decodeCommit(%s) = %d, want refused", name, id)
		}
	}
}

// FuzzTwoPCRecords decodes arbitrary bytes as a prepare record and as a commit
// marker: each is refused or is exactly the encoding of what was decoded, and
// decoding allocates in proportion to the record, not to its op count.
func FuzzTwoPCRecords(f *testing.F) {
	f.Add(encodePrepare(77, samplePortion()))
	f.Add(encodeCommit(77))
	f.Fuzz(func(t *testing.T, rec []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		p, id, ok := decodePrepare(rec)
		cid, cok := decodeCommit(rec)
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(rec)); n > budget {
			t.Fatalf("decoding a %d-byte record allocated %d bytes (budget %d)", len(rec), n, budget)
		}
		if ok && !bytes.Equal(encodePrepare(id, p), rec) {
			t.Fatalf("prepare %+v (batch %d) decoded from %x, which is not its encoding", p, id, rec)
		}
		if cok && !bytes.Equal(encodeCommit(cid), rec) {
			t.Fatalf("commit of batch %d decoded from %x, which is not its encoding", cid, rec)
		}
		if ok && cok {
			t.Fatalf("%x is both a prepare and a commit", rec)
		}
	})
}
