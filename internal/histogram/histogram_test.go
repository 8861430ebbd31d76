package histogram

import (
	"strings"
	"sync"
	"testing"
)

func TestBasicStats(t *testing.T) {
	h := New()
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 100)
	}
	if h.Count() != 100 {
		t.Fatalf("Count = %d", h.Count())
	}
	if m := h.Mean(); m < 5000 || m > 5200 {
		t.Fatalf("Mean = %v", m)
	}
	p50 := h.Percentile(50)
	if p50 < 3000 || p50 > 7000 {
		t.Fatalf("p50 = %v", p50)
	}
	p99 := h.Percentile(99)
	if p99 < p50 {
		t.Fatalf("p99 (%v) < p50 (%v)", p99, p50)
	}
}

func TestEmptyHistogram(t *testing.T) {
	h := New()
	if h.Mean() != 0 || h.Percentile(50) != 0 || h.Count() != 0 {
		t.Fatal("empty histogram stats should be zero")
	}
}

func TestNegativeClamped(t *testing.T) {
	h := New()
	h.Record(-5)
	if h.Count() != 1 {
		t.Fatal("negative observation dropped")
	}
	if h.Percentile(100) != 0 {
		t.Fatalf("clamped value wrong: %v", h.Percentile(100))
	}
}

func TestMerge(t *testing.T) {
	a, b := New(), New()
	a.Record(100)
	b.Record(300)
	b.Record(500)
	a.Merge(b)
	if a.Count() != 3 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if m := a.Mean(); m != 300 {
		t.Fatalf("merged mean = %v", m)
	}
}

func TestConcurrentRecord(t *testing.T) {
	h := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 10000; i++ {
				h.Record(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if h.Count() != 80000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestString(t *testing.T) {
	h := New()
	h.Record(1000)
	s := h.String()
	if !strings.Contains(s, "count=1") {
		t.Fatalf("String() = %q", s)
	}
}

func TestSingleSample(t *testing.T) {
	h := New()
	h.Record(12345)
	for _, p := range []float64{1, 50, 99, 100} {
		if v := h.Percentile(p); v != 12345 {
			t.Fatalf("p%v of single sample = %v, want 12345", p, v)
		}
	}
	if h.Count() != 1 || h.Min() != 12345 || h.Max() != 12345 || h.Mean() != 12345 {
		t.Fatalf("single sample: count %d min %d max %d mean %v", h.Count(), h.Min(), h.Max(), h.Mean())
	}
}

func TestMaxBucketOverflow(t *testing.T) {
	// Values beyond the last finite bucket limit (~100 s) land in the
	// MaxInt64 catch-all; percentiles must interpolate against the observed
	// max rather than the sentinel limit.
	h := New()
	huge := int64(5e11)
	h.Record(huge)
	h.Record(huge * 2)
	if got := h.Percentile(100); got != float64(huge*2) {
		t.Fatalf("p100 = %v, want %v", got, float64(huge*2))
	}
	if got := h.Percentile(50); got > float64(huge*2) || got < float64(huge) {
		t.Fatalf("p50 = %v outside observed range [%d, %d]", got, huge, huge*2)
	}
	if h.Max() != huge*2 || h.Min() != huge {
		t.Fatalf("min/max = %d/%d", h.Min(), h.Max())
	}
}

// TestEmptySummary: every statistic of an empty histogram reads zero.
func TestEmptySummary(t *testing.T) {
	h := New()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Percentile(99) != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram: count %d mean %v p50 %v p99 %v min %d max %d",
			h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.Min(), h.Max())
	}
}

func TestConcurrentRecordAndRead(t *testing.T) {
	// Writers hammer Record while readers take percentiles and extremes;
	// run under -race this pins the locking discipline.
	h := New()
	var writers, readers sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 20000; i++ {
				h.Record(int64(w*100 + i%997))
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = h.Percentile(99)
					_ = h.Max()
					_ = h.Mean()
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	if h.Count() != 80000 {
		t.Fatalf("Count = %d", h.Count())
	}
}

func TestPercentileMonotone(t *testing.T) {
	h := New()
	for i := 0; i < 10000; i++ {
		h.Record(int64(i%977) * 37)
	}
	prev := 0.0
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 100} {
		v := h.Percentile(p)
		if v < prev {
			t.Fatalf("percentiles not monotone: p%.1f=%v < %v", p, v, prev)
		}
		prev = v
	}
}

func TestMergeMatchesSingleStream(t *testing.T) {
	// Sharded collection then Merge must be statistically indistinguishable
	// from recording the same stream into one histogram: identical counts land
	// in identical buckets, so every percentile matches exactly.
	single := New()
	shards := []*H{New(), New(), New(), New()}
	v := int64(1)
	for i := 0; i < 10000; i++ {
		v = (v*6364136223846793005 + 1442695040888963407) % 5_000_000
		if v < 0 {
			v = -v
		}
		single.Record(v)
		shards[i%len(shards)].Record(v)
	}
	merged := New()
	for _, s := range shards {
		merged.Merge(s)
	}
	if merged.Count() != single.Count() || merged.Min() != single.Min() || merged.Max() != single.Max() {
		t.Fatalf("merged envelope drifted: count %d/%d min %d/%d max %d/%d",
			merged.Count(), single.Count(), merged.Min(), single.Min(), merged.Max(), single.Max())
	}
	if merged.Mean() != single.Mean() {
		t.Fatalf("merged mean %f != single %f", merged.Mean(), single.Mean())
	}
	for _, p := range []float64{1, 10, 25, 50, 75, 90, 99, 99.9, 99.99, 100} {
		if m, s := merged.Percentile(p), single.Percentile(p); m != s {
			t.Fatalf("p%v: merged %f != single %f", p, m, s)
		}
	}
}

// TestSummaryP999: the tail digest separates p99.9 from p99.
func TestSummaryP999(t *testing.T) {
	h := New()
	// 9980 fast ops and 20 slow outliers: p99 stays low, p99.9 must reach
	// into the outlier tail.
	for i := 0; i < 9980; i++ {
		h.Record(100)
	}
	for i := 0; i < 20; i++ {
		h.Record(1_000_000)
	}
	p99, p999 := h.Percentile(99), h.Percentile(99.9)
	if p999 < p99 {
		t.Fatalf("p99.9 %f below p99 %f", p999, p99)
	}
	if p99 >= 1000 {
		t.Fatalf("p99 %f should not see the 0.1%% tail", p99)
	}
	if p999 < 100_000 {
		t.Fatalf("p99.9 %f missed the outlier tail", p999)
	}
}
