package wal

import (
	"bytes"
	"runtime"
	"testing"

	"cachekv/internal/hw"
)

// fuzzLogSize is one whole block and a partial one, so that a chunk can
// overrun its block, and the region, separately.
const fuzzLogSize = BlockSize + 9000

// replay reads the log in region to its durable end.
func replay(t *testing.T, m *hw.Machine, region hw.Region, th *hw.Thread) (recs [][]byte, end uint64) {
	r := NewReader(m, region)
	total := 0
	for {
		rec, ok := r.Next(th)
		if !ok {
			return recs, r.off
		}
		recs = append(recs, rec)
		if total += len(rec); len(recs) > fuzzLogSize/headerLen || total > fuzzLogSize {
			t.Fatalf("%d records of %d bytes out of a %d-byte log", len(recs), total, fuzzLogSize)
		}
	}
}

// FuzzReaderNext replays a log region holding arbitrary bytes. Replay ends —
// no panic, no spin — after no more records and record bytes than the region
// could hold, having allocated in proportion to the region and not to a
// chunk's length field; and what it returns is a durable prefix: it depends on
// no byte past the offset the reader stopped at.
func FuzzReaderNext(f *testing.F) {
	m := hw.NewMachine(hw.Config{PMemBytes: 1 << 20})
	region, th := m.Alloc("wal", fuzzLogSize, 0), m.NewThread(0)
	w := NewWriter(m, region, th)
	for _, rec := range [][]byte{[]byte("first"), {}, bytes.Repeat([]byte("spans two blocks "), 2000)} {
		if _, err := w.Append(th, rec); err != nil {
			f.Fatal(err)
		}
	}
	valid := make([]byte, w.Offset())
	m.PMem.LoadRaw(region.Addr, valid)
	f.Add(valid)
	f.Fuzz(func(t *testing.T, image []byte) {
		img := make([]byte, fuzzLogSize)
		copy(img, image)
		m.PMem.StoreRaw(region.Addr, img)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		recs, end := replay(t, m, region, th)
		runtime.ReadMemStats(&after)
		if n := after.TotalAlloc - before.TotalAlloc; n > 16*fuzzLogSize {
			t.Fatalf("replay allocated %d bytes over a %d-byte log", n, fuzzLogSize)
		}
		if end < fuzzLogSize {
			clear(img[end:])
			m.PMem.StoreRaw(region.Addr, img)
		}
		again, _ := replay(t, m, region, th)
		if len(again) != len(recs) {
			t.Fatalf("%d records, but %d once the bytes past offset %d are zero", len(recs), len(again), end)
		}
		for i := range recs {
			if !bytes.Equal(recs[i], again[i]) {
				t.Fatalf("record %d changed once the bytes past offset %d are zero", i, end)
			}
		}
	})
}
