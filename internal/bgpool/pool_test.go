package bgpool

import (
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachekv/internal/util"
)

func halted[T any](p *Pool[T]) bool {
	select {
	case <-p.halt:
		return true
	default:
		return false
	}
}

// eventually fails the test unless cond holds within a few seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestWorkersNeverExceeded: however many goroutines submit at once, a pool's
// jobs run one at a time on its one worker, each submitter's in the order it
// submitted them.
func TestWorkersNeverExceeded(t *testing.T) {
	// The pool has one rule, FIFO; the subtest keeps its name from when
	// there were more.
	t.Run("fifo", func(t *testing.T) {
		const submitters, each = 8, 50
		var inside, peak, runs atomic.Int32
		last := make([]int, submitters) // per submitter, the last job run plus one
		p := New(Config{Name: "k", Queue: submitters * each}, func(_ int64, x [2]int) {
			n := inside.Add(1)
			for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
			}
			if g, i := x[0], x[1]; last[g] != i {
				t.Errorf("submitter %d's job %d ran after its job %d", g, i, last[g]-1)
			} else {
				last[g] = i + 1
			}
			time.Sleep(20 * time.Microsecond)
			inside.Add(-1)
			runs.Add(1)
		}, nil, func(err error) { t.Error(err) })
		var wg sync.WaitGroup
		for g := range submitters {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range each {
					p.Submit(int64(g*each+i), [2]int{g, i})
				}
			}()
		}
		wg.Wait()
		if !p.Wait(func() bool { return runs.Load() == submitters*each }) {
			t.Fatal("pool aborted")
		}
		p.Close()
		if got := peak.Load(); got != 1 {
			t.Fatalf("%d jobs ran at once on one worker", got)
		}
	})
}

// TestAbortWakesWaitersAndDropsQueuedJobs: a crash-stop wakes every waiter,
// with false, and no job queued behind it runs; the drop hook sees each one.
func TestAbortWakesWaitersAndDropsQueuedJobs(t *testing.T) {
	gate := make(chan struct{})
	var ran, dropped atomic.Int32
	p := New(Config{Name: "flush", Queue: 8}, func(int64, int) {
		ran.Add(1)
		<-gate
	}, func(int) { dropped.Add(1) }, func(err error) { t.Error(err) })
	p.Submit(1, 0)
	eventually(t, "the first job", func() bool { return p.Running() == 1 })
	for i := range 5 {
		p.Submit(int64(i+2), i)
	}
	const waiters = 4
	woke := make(chan bool, waiters)
	for range waiters {
		go func() { woke <- p.Wait(func() bool { return false }) }()
	}
	p.Abort()
	for range waiters {
		select {
		case ok := <-woke:
			if ok {
				t.Fatal("Wait reported its predicate true after a crash-stop")
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter slept through the crash-stop")
		}
	}
	close(gate)
	p.Close()
	if ran.Load() != 1 || dropped.Load() != 5 {
		t.Fatalf("%d jobs ran and %d were dropped, want the running one and 5", ran.Load(), dropped.Load())
	}
}

// TestCloseDrainsInOrder: Close returns only once the running job and every
// job queued behind it have run, in the order they were submitted.
func TestCloseDrainsInOrder(t *testing.T) {
	gate := make(chan struct{})
	var mu sync.Mutex
	var log []int
	p := New(Config{Name: "flush", Queue: 8}, func(_ int64, x int) {
		if x == 0 {
			<-gate
		}
		mu.Lock()
		log = append(log, x)
		mu.Unlock()
	}, nil, func(err error) { t.Error(err) })
	p.Submit(0, 0)
	eventually(t, "the first job", func() bool { return p.Running() == 1 })
	for i := 1; i <= 5; i++ {
		p.Submit(int64(i), i)
	}
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	eventually(t, "Close to halt the pool", func() bool { return halted(p) })
	select {
	case <-closed:
		t.Fatal("Close returned while a job ran")
	default:
	}
	close(gate)
	<-closed
	mu.Lock()
	defer mu.Unlock()
	if want := []int{0, 1, 2, 3, 4, 5}; !slices.Equal(log, want) {
		t.Fatalf("ran %v, want %v", log, want)
	}
}

// TestSubmitAllocs: submitting a job allocates nothing — a flush is submitted
// per slot.
func TestSubmitAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	x := new(int)
	p := New(Config{Name: "flush", Queue: 4096}, func(int64, *int) {}, nil, func(err error) { t.Error(err) })
	defer p.Close()
	at := int64(0)
	if n := testing.AllocsPerRun(1000, func() { at++; p.Submit(at, x) }); n != 0 {
		t.Errorf("Submit allocates %.2f objects", n)
	}
}
