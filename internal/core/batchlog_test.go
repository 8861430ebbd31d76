package core

import (
	"bytes"
	"runtime"
	"testing"

	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// recordShards is the router size the record tests decode for.
const recordShards = 8

// samplePortions is a batch record's payload with every field in use: a put,
// a delete (no value), an op with an empty key, and a range tombstone in
// every portion.
func samplePortions() []shardPortion {
	rd := batchOp{key: []byte("a"), value: []byte("b"), kind: util.KindRangeDel, seq: 40}
	return []shardPortion{
		{shard: 1, ops: []batchOp{rd, {key: []byte("apple"), value: []byte("red"), kind: util.KindValue, seq: 41}}},
		{shard: 3, ops: []batchOp{rd, {key: []byte("pear"), kind: util.KindDelete, seq: 42},
			{value: []byte("v"), kind: util.KindValue, seq: 1 << 55}}},
	}
}

// Offsets into appendBatch(nil, 77, samplePortions()).
const (
	offPortions = 9      // portion count
	offShard    = 13     // first portion's shard
	offOps      = 17     // first portion's op count
	offKlen     = 21 + 9 // first op's klen
)

// hostileBatches are records the decoder must refuse, each a one-field edit
// of a valid record (or no record at all).
func hostileBatches() map[string][]byte {
	rec := appendBatch(nil, 77, samplePortions())
	edit := func(off int, v uint32) []byte {
		out := append([]byte(nil), rec...)
		copy(out[off:], util.PutFixed32(nil, v))
		return out
	}
	swapped := samplePortions()
	swapped[0].shard, swapped[1].shard = 3, 1
	repeated := samplePortions()
	repeated[1].shard = 1
	empty := samplePortions()
	empty[1].ops = nil
	one := samplePortions()[1:]
	wrongTag := append([]byte(nil), rec...)
	wrongTag[0] = 'P'
	return map[string][]byte{
		"empty":               nil,
		"torn":                rec[:len(rec)-1],
		"torn mid op":         rec[:offKlen+2],
		"trailing byte":       append(rec[:len(rec):len(rec)], 0),
		"wrong tag":           wrongTag,
		"portions 2^32-1":     edit(offPortions, 1<<32-1),
		"portions one more":   edit(offPortions, 3),
		"no portions":         appendBatch(nil, 77, nil),
		"one portion":         appendBatch(nil, 77, one),
		"ops 2^32-1":          edit(offOps, 1<<32-1),
		"klen 2^32-1":         edit(offKlen, 1<<32-1),
		"shard 2^32-1":        edit(offShard, 1<<32-1),
		"shard past the last": edit(offShard, recordShards),
		"descending shards":   appendBatch(nil, 77, swapped),
		"repeated shard":      appendBatch(nil, 77, repeated),
		"empty portion":       appendBatch(nil, 77, empty),
	}
}

// A batch record decodes only if encoding the result gives the record back
// and the router could have written it; everything else — a torn tail, a
// count the record cannot hold, a length past its end, bytes left over, fewer
// than two portions, a shard out of range or out of order, an empty portion —
// is refused.
func TestTwoPCRecords(t *testing.T) {
	rec := appendBatch(nil, 77, samplePortions())
	if len(rec) != recordLen(samplePortions()) {
		t.Fatalf("record is %d bytes, recordLen says %d", len(rec), recordLen(samplePortions()))
	}
	id, ps, ok := decodeBatch(rec, recordShards)
	if !ok || id != 77 || !bytes.Equal(appendBatch(nil, id, ps), rec) {
		t.Fatalf("decodeBatch(appendBatch) = %d, %+v, %v", id, ps, ok)
	}
	if _, _, ok := decodeBatch(rec, 3); ok {
		t.Fatal("a record naming shard 3 decoded on a three-shard router")
	}
	for name, bad := range hostileBatches() {
		if id, ps, ok := decodeBatch(bad, recordShards); ok {
			t.Errorf("decodeBatch(%s) = %d, %+v, want refused", name, id, ps)
		}
	}
}

// FuzzTwoPCRecords decodes arbitrary bytes as a batch record: it is refused
// or is exactly the encoding of what was decoded, and decoding allocates in
// proportion to the record, not to its counts. The first seed decodes, the
// second (one portion) is refused.
func FuzzTwoPCRecords(f *testing.F) {
	f.Add(appendBatch(nil, 77, samplePortions()))
	f.Add(appendBatch(nil, 1, samplePortions()[1:]))
	f.Fuzz(func(t *testing.T, rec []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id, ps, ok := decodeBatch(rec, recordShards)
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+16*len(rec)); n > budget {
			t.Fatalf("decoding a %d-byte record allocated %d bytes (budget %d)", len(rec), n, budget)
		}
		if ok && !bytes.Equal(appendBatch(nil, id, ps), rec) {
			t.Fatalf("batch %d %+v decoded from %x, which is not its encoding", id, ps, rec)
		}
	})
}

// maxBatchRecord reckons with the wal's chunk framing. Held to the real
// writer: from every offset a record can end at, up to half the log, a record
// of maxBatchRecord bytes still fits.
func TestMaxBatchRecordFitsTheLog(t *testing.T) {
	m := testMachine()
	th := m.NewThread(0)
	rg, _ := m.FindOrAlloc("test.batchlog", batchLogBytes, 0)
	rec := make([]byte, maxBatchRecord)
	half := uint64(batchLogBytes / 2)
	for _, off := range []uint64{half, half - 1, half - 6, half - 7, half - 8, half - 13,
		half - wal.BlockSize + 8, half - wal.BlockSize - 1, half - wal.BlockSize - 6} {
		w := wal.NewWriter(m, rg, th)
		// One filler record of b chunks ends at its length plus b headers.
		b := (off + wal.BlockSize - 1) / wal.BlockSize
		if _, err := w.Append(th, make([]byte, off-7*b)); err != nil || w.Offset() != off {
			t.Fatalf("filler ends at %d (%v), want %d", w.Offset(), err, off)
		}
		if _, err := w.Append(th, rec); err != nil {
			t.Fatalf("a %d-byte record at offset %d: %v", maxBatchRecord, off, err)
		}
	}
}
