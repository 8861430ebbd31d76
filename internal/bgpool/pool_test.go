package bgpool

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cachekv/internal/util"
)

var rules = map[string]Rule{"fifo": FIFO, "coalesce": Coalesce}

func halted[T any](k *Kind[T]) bool {
	select {
	case <-k.halt:
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

// TestWorkersNeverExceeded: however many goroutines submit at once, no more
// of a kind's jobs run together than it has workers, under every rule — a
// Coalesce kind's jobs recruit more workers for themselves, as compaction's do.
func TestWorkersNeverExceeded(t *testing.T) {
	for name, rule := range rules {
		t.Run(name, func(t *testing.T) {
			const workers, submitters, each = 3, 8, 50
			p := New(func(err error) { t.Error(err) })
			var inside, peak, runs atomic.Int32
			var k *Kind[int]
			k = Add(p, Config{Name: "k", Workers: workers, Rule: rule, Queue: submitters * each},
				func(_ int, at int64, _ int) (int64, bool) {
					n := inside.Add(1)
					for cur := peak.Load(); n > cur && !peak.CompareAndSwap(cur, n); cur = peak.Load() {
					}
					more := runs.Add(1) < submitters*each && rule == Coalesce
					if more {
						k.Submit(at, 0) // recruit
					}
					time.Sleep(50 * time.Microsecond)
					inside.Add(-1)
					return at, more
				}, nil)
			var wg sync.WaitGroup
			for g := range submitters {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range each {
						k.Submit(int64(g*each+i), i)
					}
				}()
			}
			wg.Wait()
			if !k.Wait(func() bool { return runs.Load() >= submitters*each }) {
				t.Fatal("pool aborted")
			}
			p.Close()
			if got := peak.Load(); got > workers || got < 2 {
				t.Fatalf("%d jobs ran at once on %d workers, want 2..%d", got, workers, workers)
			}
		})
	}
}

// TestCoalesceRunsAtTheFrontier: submissions to a busy Coalesce kind fold into
// one run at the largest virtual time submitted, never an earlier one, and
// never more than one run per pending kick.
func TestCoalesceRunsAtTheFrontier(t *testing.T) {
	p := New(func(err error) { t.Error(err) })
	gate := make(chan struct{})
	var mu sync.Mutex
	var ats []int64
	k := Add(p, Config{Name: "compact", Workers: 1, Rule: Coalesce}, func(_ int, at int64, _ struct{}) (int64, bool) {
		mu.Lock()
		ats = append(ats, at)
		first := len(ats) == 1
		mu.Unlock()
		if first {
			<-gate
		}
		return at, false
	}, nil)
	k.Submit(5, struct{}{})
	eventually(t, "the first run", func() bool { return k.Running() == 1 })
	var wg sync.WaitGroup
	for _, at := range rand.New(rand.NewSource(1)).Perm(100) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			k.Submit(int64(at), struct{}{})
		}()
	}
	wg.Wait()
	close(gate)
	p.Close()
	if want := []int64{5, 99}; !slices.Equal(ats, want) {
		t.Fatalf("runs at %v, want %v: the first kick, then one run at the frontier", ats, want)
	}
}

// TestAbortWakesWaitersAndDropsQueuedJobs: a crash-stop wakes every waiter,
// with false, and no job queued behind it runs; the drop hook sees each one.
func TestAbortWakesWaitersAndDropsQueuedJobs(t *testing.T) {
	p := New(func(err error) { t.Error(err) })
	gate := make(chan struct{})
	var ran, dropped atomic.Int32
	k := Add(p, Config{Name: "flush", Workers: 1, Rule: FIFO, Queue: 8}, func(_ int, at int64, _ int) (int64, bool) {
		ran.Add(1)
		<-gate
		return at, false
	}, func(int) { dropped.Add(1) })
	k.Submit(1, 0)
	eventually(t, "the first job", func() bool { return k.Running() == 1 })
	for i := range 5 {
		k.Submit(int64(i+2), i)
	}
	const waiters = 4
	woke := make(chan bool, waiters)
	for range waiters {
		go func() { woke <- k.Wait(func() bool { return false }) }()
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

// TestCloseDrainsInOrder: Close stops the kinds in the order they were added
// — here two FIFO kinds called flush and spill, compact, then a coalescing
// kind that drains, called merge — so the jobs a draining flush submits to
// the spill, and the spill to the merge kind, still run; an Abandon kind
// drops its pending run instead.
func TestCloseDrainsInOrder(t *testing.T) {
	p := New(func(err error) { t.Error(err) })
	flushGate, compactGate := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	var log []string
	note := func(s string) {
		mu.Lock()
		log = append(log, s)
		mu.Unlock()
	}
	var flush *Kind[int]
	var spill, compact, merge *Kind[struct{}]
	running := func(ks ...bool) bool { return !slices.Contains(ks, true) }
	flush = Add(p, Config{Name: "flush", Workers: 1, Rule: FIFO, Queue: 4}, func(_ int, at int64, _ int) (int64, bool) {
		<-flushGate
		if !running(halted(spill), halted(compact), halted(merge)) {
			t.Error("a kind after flush was stopped while a flush ran")
		}
		note("flush")
		spill.Submit(at, struct{}{})
		return at, false
	}, nil)
	spill = Add(p, Config{Name: "spill", Workers: 1, Rule: FIFO, Queue: 4}, func(_ int, at int64, _ struct{}) (int64, bool) {
		if !running(halted(compact), halted(merge)) {
			t.Error("a kind after spill was stopped while a spill ran")
		}
		note("spill")
		merge.Submit(at, struct{}{})
		return at, false
	}, nil)
	var dropped atomic.Int32
	compact = Add(p, Config{Name: "compact", Workers: 1, Rule: Coalesce, Abandon: true}, func(_ int, at int64, _ struct{}) (int64, bool) {
		note("compact")
		<-compactGate
		return at, false
	}, func(struct{}) { dropped.Add(1) })
	merge = Add(p, Config{Name: "merge", Workers: 1, Rule: Coalesce}, func(_ int, at int64, _ struct{}) (int64, bool) {
		note("merge")
		return at, false
	}, nil)

	compact.Submit(1, struct{}{})
	eventually(t, "a compaction", func() bool { return compact.Running() == 1 })
	compact.Submit(2, struct{}{}) // pending behind it
	flush.Submit(3, 0)
	eventually(t, "a flush", func() bool { return flush.Running() == 1 })
	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	eventually(t, "Close to stop the flush kind", func() bool { return halted(flush) })
	close(flushGate)
	eventually(t, "Close to stop the compaction kind", func() bool { return halted(compact) })
	close(compactGate)
	<-closed
	mu.Lock()
	defer mu.Unlock()
	if !slices.Contains(log, "merge") {
		t.Fatalf("ran %v: the flush's spill and the spill's merge must all run", log)
	}
	if want := []string{"compact", "flush", "spill"}; !slices.Equal(slices.DeleteFunc(slices.Clone(log), func(s string) bool { return s == "merge" }), want) {
		t.Fatalf("ran %v, want %v then the merge", log, want)
	}
	if dropped.Load() != 1 {
		t.Fatalf("compaction dropped %d pending runs at Close, want 1", dropped.Load())
	}
}

// TestSubmitAllocs: submitting a job allocates nothing, whatever the rule — a
// flush is submitted per slot.
func TestSubmitAllocs(t *testing.T) {
	if util.RaceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	p := New(func(err error) { t.Error(err) })
	defer p.Close()
	x := new(int)
	body := func(_ int, at int64, _ *int) (int64, bool) { return at, false }
	for name, rule := range rules {
		k := Add(p, Config{Name: name, Workers: 1, Rule: rule, Queue: 4096}, body, nil)
		at := int64(0)
		if n := testing.AllocsPerRun(1000, func() { at++; k.Submit(at, x) }); n != 0 {
			t.Errorf("%s: Submit allocates %.2f objects", name, n)
		}
	}
}
