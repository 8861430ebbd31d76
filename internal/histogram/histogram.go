// Package histogram records latency distributions the way db_bench does:
// geometric buckets from 1 ns to ~100 s, with average and percentile
// reporting. Benchmarks use virtual nanoseconds, so the same histogram
// serves simulated and wall-clock measurements.
package histogram

import (
	"fmt"
	"math"
	"sort"
	"sync"
)

// bucketLimits returns the ascending geometric bucket boundaries.
var bucketLimits = func() []int64 {
	var lim []int64
	v := int64(1)
	for v < int64(1e11) {
		lim = append(lim, v)
		next := v + v/4 // ~1.25x growth
		if next == v {
			next = v + 1
		}
		v = next
	}
	lim = append(lim, math.MaxInt64)
	return lim
}()

// H accumulates observations. Safe for concurrent Record calls.
type H struct {
	mu      sync.Mutex
	counts  []int64
	num     int64
	sum     int64
	min     int64
	max     int64
	started bool
}

// New returns an empty histogram.
func New() *H {
	return &H{counts: make([]int64, len(bucketLimits))}
}

// Record adds one observation of v nanoseconds.
func (h *H) Record(v int64) {
	if v < 0 {
		v = 0
	}
	idx := sort.Search(len(bucketLimits), func(i int) bool { return bucketLimits[i] > v })
	h.mu.Lock()
	h.counts[idx]++
	h.num++
	h.sum += v
	if !h.started || v < h.min {
		h.min = v
	}
	if !h.started || v > h.max {
		h.max = v
	}
	h.started = true
	h.mu.Unlock()
}

// Merge folds o into h.
func (h *H) Merge(o *H) {
	o.mu.Lock()
	defer o.mu.Unlock()
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.num += o.num
	h.sum += o.sum
	if o.started {
		if !h.started || o.min < h.min {
			h.min = o.min
		}
		if !h.started || o.max > h.max {
			h.max = o.max
		}
		h.started = true
	}
}

// Count returns the number of observations.
func (h *H) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.num
}

// Mean returns the average observation, or 0 when empty.
func (h *H) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.num == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.num)
}

// Percentile returns the approximate p-th percentile (0 < p <= 100) using
// linear interpolation within the containing bucket.
func (h *H) Percentile(p float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.num == 0 {
		return 0
	}
	threshold := float64(h.num) * p / 100
	var cum int64
	for i, c := range h.counts {
		if float64(cum+c) >= threshold {
			lo := int64(0)
			if i > 0 {
				lo = bucketLimits[i-1]
			}
			hi := bucketLimits[i]
			if hi == math.MaxInt64 {
				hi = h.max
			}
			within := threshold - float64(cum)
			frac := 0.0
			if c > 0 {
				frac = within / float64(c)
			}
			v := float64(lo) + frac*float64(hi-lo)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			if v < float64(h.min) {
				v = float64(h.min)
			}
			return v
		}
		cum += c
	}
	return float64(h.max)
}

// Min returns the smallest observation, or 0 when empty.
func (h *H) Min() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *H) Max() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}

// String renders a db_bench-style summary line.
func (h *H) String() string {
	return fmt.Sprintf("count=%d mean=%.1fns p50=%.0fns p99=%.0fns max=%dns",
		h.Count(), h.Mean(), h.Percentile(50), h.Percentile(99), h.maxLocked())
}

func (h *H) maxLocked() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.max
}
