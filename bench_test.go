package cachekv

// Ablation benches for the design choices DESIGN.md §5 calls out, on the
// public API. The paper's figures are not Go benchmarks: cmd/experiments runs
// them from the registry in internal/bench, whose smoke test covers every
// harness path.

import (
	"fmt"
	"testing"
)

// ablationFill measures CacheKV's random-write throughput under opts.
func ablationFill(b *testing.B, opts Options, ops int) float64 {
	b.Helper()
	db, err := Open(opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := 0; i < ops; i++ {
		if err := s.Put([]byte(fmt.Sprintf("k%010d", i*2654435761%ops)), make([]byte, 64)); err != nil {
			b.Fatal(err)
		}
	}
	return float64(ops) / float64(s.VirtualNanos()) * 1e6
}

// BenchmarkAblationCopyFlush contrasts CacheKV (copy-based flush) with the
// eviction-driven write-back a naive eADR store relies on — approximated by
// the NoveLSM-w/o-flush baseline, whose memtable writes leave the cache only
// through LRU eviction.
func BenchmarkAblationCopyFlush(b *testing.B) {
	for i := 0; i < b.N; i++ {
		withCopy := ablationFill(b, Options{PMemMB: 1024}, 30_000)
		db, err := Open(Options{Engine: EngineNoveLSMNoFlush, PMemMB: 1024})
		if err != nil {
			b.Fatal(err)
		}
		s := db.Session(0)
		for j := 0; j < 30_000; j++ {
			s.Put([]byte(fmt.Sprintf("k%010d", j)), make([]byte, 64))
		}
		withoutCopy := float64(30_000) / float64(s.VirtualNanos()) * 1e6
		db.Close()
		b.ReportMetric(withCopy/withoutCopy, "speedup")
	}
}

// BenchmarkAblationSyncThreshold sweeps the lazy-index sync threshold. The
// threshold moves work between the background index thread and the readers
// (trigger 1 makes a read synchronize whatever the background missed), so
// the interesting metric is read throughput interleaved with writes.
func BenchmarkAblationSyncThreshold(b *testing.B) {
	for _, thr := range []int{1, 64, 1 << 20} {
		b.Run(fmt.Sprintf("threshold=%d", thr), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				db, err := Open(Options{PMemMB: 1024, SyncThreshold: thr})
				if err != nil {
					b.Fatal(err)
				}
				s := db.Session(0)
				const n = 20_000
				var readNs int64
				for j := 0; j < n; j++ {
					s.Put([]byte(fmt.Sprintf("k%010d", j)), make([]byte, 64))
					if j%8 == 0 {
						t0 := s.VirtualNanos()
						s.Get([]byte(fmt.Sprintf("k%010d", j/2)))
						readNs += s.VirtualNanos() - t0
					}
				}
				db.Close()
				b.ReportMetric(float64(readNs)/float64(n/8), "read-ns/op")
			}
		})
	}
}

// BenchmarkAblationIndexPlacement contrasts CacheKV's DRAM sub-skiplists
// (via full CacheKV) with PMem-resident indexes (via NoveLSM, whose PMem
// memtable keeps its skiplist in PMem) on the read path.
func BenchmarkAblationIndexPlacement(b *testing.B) {
	read := func(engine Engine) float64 {
		db, err := Open(Options{Engine: engine, PMemMB: 1024})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		s := db.Session(0)
		const n = 20_000
		for i := 0; i < n; i++ {
			s.Put([]byte(fmt.Sprintf("k%010d", i)), make([]byte, 64))
		}
		base := s.VirtualNanos()
		for i := 0; i < n; i++ {
			s.Get([]byte(fmt.Sprintf("k%010d", i*2654435761%n)))
		}
		return float64(n) / float64(s.VirtualNanos()-base) * 1e6
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(read(EngineCacheKV)/read(EngineNoveLSM), "read-speedup")
	}
}

// BenchmarkAblationElastic contrasts elastic and fixed sub-MemTable sizing
// under a bursty many-core write load.
func BenchmarkAblationElastic(b *testing.B) {
	burst := func(disable bool) float64 {
		db, err := Open(Options{PMemMB: 1024, DisableElastic: disable, PoolMB: 4, SubMemTableKB: 2048})
		if err != nil {
			b.Fatal(err)
		}
		defer db.Close()
		done := make(chan int64, 8)
		for w := 0; w < 8; w++ {
			go func(w int) {
				s := db.Session(w)
				for i := 0; i < 5_000; i++ {
					s.Put([]byte(fmt.Sprintf("w%d-%08d", w, i)), make([]byte, 64))
				}
				done <- s.VirtualNanos()
			}(w)
		}
		var max int64
		for w := 0; w < 8; w++ {
			if ns := <-done; ns > max {
				max = ns
			}
		}
		return float64(8*5_000) / float64(max) * 1e6
	}
	for i := 0; i < b.N; i++ {
		b.ReportMetric(burst(false)/burst(true), "elastic-speedup")
	}
}
