package skiplist

import (
	"fmt"
	"testing"
)

func BenchmarkInsert(b *testing.B) {
	l := New(nil, 1)
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key%012d", i*2654435761))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Insert(keys[i], nil, nil)
	}
}

// fingerRun is the size of one ascending run in the finger benchmarks: about
// the entries of one 2 MiB sub-MemTable.
const fingerRun = 20000

// benchFingerUpsert upserts runs of fingerRun ascending keys, each run through
// a fresh finger into a fresh list that already holds base entries (the even
// keys; the run takes odd ones spread evenly across them), and reports node
// visits per upsert next to ns/op.
func benchFingerUpsert(b *testing.B, base int) {
	key := func(i int) []byte { return []byte(fmt.Sprintf("key%012d", i)) }
	gap := max(base/fingerRun, 1)
	run := make([][]byte, fingerRun)
	for i := range run {
		run[i] = key(2*gap*i + 1)
	}
	visits := 0
	var fg *Finger
	for i := 0; i < b.N; i++ {
		if i%fingerRun == 0 {
			b.StopTimer()
			l := New(nil, 1)
			for j := 0; j < base; j++ {
				l.Insert(key(2*j), nil, nil)
			}
			fg = l.NewFinger(func(n int) { visits += n })
			b.StartTimer()
		}
		fg.Seek(run[i%fingerRun])
		fg.Set(nil)
	}
	b.ReportMetric(float64(visits)/float64(b.N), "visits/op")
}

// BenchmarkFingerUpsertSorted builds a list from nothing, the way recovery
// builds the global skiplist.
func BenchmarkFingerUpsertSorted(b *testing.B) { benchFingerUpsert(b, 0) }

// BenchmarkFingerUpsertIntoLarge merges a run into a list twelve times its
// size, the way the index thread merges a flushed table into a full global
// skiplist.
func BenchmarkFingerUpsertIntoLarge(b *testing.B) { benchFingerUpsert(b, 12*fingerRun) }

func BenchmarkGet(b *testing.B) {
	l := New(nil, 1)
	const n = 100000
	for i := 0; i < n; i++ {
		l.Insert([]byte(fmt.Sprintf("key%012d", i)), []byte("v"), nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		l.Get([]byte(fmt.Sprintf("key%012d", i%n)), nil)
	}
}
