package sim

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvance(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not at zero")
	}
	if got := c.Advance(100); got != 100 {
		t.Fatalf("Advance(100) = %d", got)
	}
	if got := c.Advance(-5); got != 100 {
		t.Fatalf("negative Advance moved the clock: %d", got)
	}
	if got := c.AdvanceTo(50); got != 100 {
		t.Fatalf("AdvanceTo(50) moved clock backward: %d", got)
	}
	if got := c.AdvanceTo(250); got != 250 {
		t.Fatalf("AdvanceTo(250) = %d", got)
	}
}

func TestClockMonotoneProperty(t *testing.T) {
	f := func(steps []int16) bool {
		var c Clock
		prev := int64(0)
		for _, s := range steps {
			now := c.Advance(int64(s))
			if now < prev {
				return false
			}
			prev = now
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestVMutexSerializesVirtualTime(t *testing.T) {
	cm := DefaultCosts()
	m := NewVMutex(cm)
	const (
		threads = 8
		iters   = 200
		csWork  = int64(1000)
	)
	clocks := make([]*Clock, threads)
	var wg sync.WaitGroup
	for i := 0; i < threads; i++ {
		clocks[i] = &Clock{}
		wg.Add(1)
		go func(clk *Clock) {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				m.Lock(clk)
				clk.Advance(csWork)
				m.Unlock(clk)
			}
		}(clocks[i])
	}
	wg.Wait()
	// All critical sections serialize, so the maximum clock must cover at
	// least threads*iters*csWork virtual nanoseconds.
	var max int64
	for _, c := range clocks {
		if c.Now() > max {
			max = c.Now()
		}
	}
	if min := int64(threads * iters * int(csWork)); max < min {
		t.Fatalf("virtual span %d < serialized lower bound %d", max, min)
	}
	acq, _ := m.Stats()
	if acq != threads*iters {
		t.Fatalf("acquires = %d, want %d", acq, threads*iters)
	}
}

func TestServerPoolParallelism(t *testing.T) {
	// Two servers: four unit jobs submitted at t=0 should finish by 2d, not 4d.
	p := NewServerPool(2)
	const d = 100
	var latest int64
	for i := 0; i < 4; i++ {
		if done := p.Submit(0, d); done > latest {
			latest = done
		}
	}
	if latest != 2*d {
		t.Fatalf("4 jobs on 2 servers finished at %d, want %d", latest, 2*d)
	}
	if p.Size() != 2 {
		t.Fatalf("Size() = %d", p.Size())
	}
	jobs, busy := p.Stats()
	if jobs != 4 || busy != 4*d {
		t.Fatalf("Stats() = %d, %d", jobs, busy)
	}
}

func TestServerPoolRespectsReadyTime(t *testing.T) {
	p := NewServerPool(1)
	if done := p.Submit(500, 100); done != 600 {
		t.Fatalf("job ready at 500 finished at %d, want 600", done)
	}
	// Server busy until 600; a job ready at 0 must queue behind it.
	if done := p.Submit(0, 100); done != 700 {
		t.Fatalf("queued job finished at %d, want 700", done)
	}
	if f := p.EarliestFree(); f != 700 {
		t.Fatalf("EarliestFree() = %d", f)
	}
}

func TestBandwidthSerializes(t *testing.T) {
	var b Bandwidth
	if done := b.Acquire(0, 10, 7); done != 70 {
		t.Fatalf("first transfer done at %d", done)
	}
	if done := b.Acquire(0, 1, 7); done != 77 {
		t.Fatalf("second transfer done at %d, want 77", done)
	}
	if done := b.Acquire(1000, 1, 7); done != 1007 {
		t.Fatalf("idle pipe transfer done at %d, want 1007", done)
	}
	if b.Units() != 12 {
		t.Fatalf("Units() = %d", b.Units())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(1).Uint64() == NewRNG(2).Uint64() {
		t.Fatal("different seeds should differ")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if n := r.Intn(17); n < 0 || n >= 17 {
			t.Fatalf("Intn out of range: %d", n)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
		if u := r.Uint64n(3); u >= 3 {
			t.Fatalf("Uint64n out of range: %d", u)
		}
	}
}

func TestRNGZeroSeed(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced degenerate stream")
	}
}

func TestDefaultCostsSane(t *testing.T) {
	cm := DefaultCosts()
	if cm.XPLineSize != 256 || cm.CacheLineSize != 64 {
		t.Fatalf("granularities wrong: XPLine=%d line=%d", cm.XPLineSize, cm.CacheLineSize)
	}
	if cm.PMemReadSeq <= cm.DRAMAccess {
		t.Fatal("PMem reads must be slower than DRAM")
	}
	if cm.RMWPenalty <= 0 || cm.XPBufferHit <= 0 {
		t.Fatal("write path costs must be positive")
	}
}
