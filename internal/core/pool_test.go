package core

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"cachekv/internal/hw"
	"cachekv/internal/obs"
)

// testPool opens a bare pool of n slots of slotBytes each for cores cores.
func testPool(t *testing.T, n int, slotBytes uint64, cores int) (*pool, *hw.Machine) {
	t.Helper()
	m := testMachine()
	size := poolHeaderBytes + uint64(n)*slotBytes
	part, err := m.Cache.Reserve(int(size))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { m.Cache.Release(part) })
	p, err := newPool(m, m.Alloc("pool", size, 4096), part, slotBytes, cores, m.NewThread(0))
	if err != nil {
		t.Fatal(err)
	}
	return p, m
}

// threadAt is a thread on core whose clock reads at.
func threadAt(m *hw.Machine, core int, at int64) *hw.Thread {
	th := m.NewThread(core)
	th.Clock.AdvanceTo(at)
	return th
}

// mustAcquire is acquire without a deadline, failing the test on an error.
func mustAcquire(t *testing.T, p *pool, th *hw.Thread) *slot {
	t.Helper()
	s, err := p.acquire(th, th.Core, 1, 0)
	if err != nil || s == nil {
		t.Fatalf("acquire on core %d: %v, %v", th.Core, s, err)
	}
	return s
}

// TestAcquireTakesTheSlotThatFreesFirst: free slots whose flushes end out of
// index order. An acquire below every freeAt takes the one that frees first
// and advances to it; one past two of them takes a slot free by then — the
// one freed last — without advancing.
func TestAcquireTakesTheSlotThatFreesFirst(t *testing.T) {
	p, m := testPool(t, 4, 128<<10, 6)
	ends := []int64{400_000, 100_000, 300_000, 200_000}
	slots := make([]*slot, len(ends))
	for i := range ends {
		slots[i] = mustAcquire(t, p, m.NewThread(i))
	}
	for i, s := range slots {
		p.sealForCore(m.NewThread(i), i)
		p.markFree(m.NewThread(i), s, ends[i])
	}

	th := threadAt(m, 4, 50_000)
	if s := mustAcquire(t, p, th); s != slots[1] || th.Clock.Now() < 100_000 || th.Clock.Now() >= 200_000 {
		t.Fatalf("below every freeAt: took slot %d at %d vns, want slot %d at 100 000", s.idx, th.Clock.Now(), slots[1].idx)
	}
	th = threadAt(m, 5, 350_000)
	if s := mustAcquire(t, p, th); s != slots[2] || th.Clock.Now() >= 400_000 {
		t.Fatalf("past two freeAts: took slot %d (free at %d) at %d vns, want slot %d, free at 300 000, without a wait",
			s.idx, ends[s.idx], th.Clock.Now(), slots[2].idx)
	}
}

// TestAcquireWaitsForAnEarlierBooking: the only free slot frees at 500 000
// while a sealed slot's flush is still in flight. The acquire waits for that
// flush to book its end; it ends at 200 000, so the acquire takes that slot.
func TestAcquireWaitsForAnEarlierBooking(t *testing.T) {
	p, m := testPool(t, 2, 128<<10, 3)
	late, early := mustAcquire(t, p, m.NewThread(0)), mustAcquire(t, p, m.NewThread(1))
	p.sealForCore(m.NewThread(0), 0)
	p.markFree(m.NewThread(0), late, 500_000)
	p.sealForCore(m.NewThread(1), 1) // in flight

	th := threadAt(m, 2, 100_000)
	got := make(chan *slot, 1)
	go func() {
		s, _ := p.acquire(th, 2, 1, 0)
		got <- s
	}()
	select {
	case s := <-got:
		t.Fatalf("acquire took slot %d at %d vns while a flush was still in flight", s.idx, th.Clock.Now())
	case <-time.After(50 * time.Millisecond):
	}
	p.markFree(m.NewThread(1), early, 200_000)
	if s := <-got; s != early || th.Clock.Now() >= 500_000 {
		t.Fatalf("took slot %d at %d vns, want slot %d at 200 000", s.idx, th.Clock.Now(), early.idx)
	}
}

// TestResizedSlotsKeepTheirFlushEnd: a slot freed at T and split, or two
// halves freed at T1 < T2 and merged, are not free before T (T2): a caller
// whose clock reads less waits for it, whichever piece it gets.
func TestResizedSlotsKeepTheirFlushEnd(t *testing.T) {
	const t1, t2 = 600_000, 900_000
	p, m := testPool(t, 1, 128<<10, 2)
	whole := mustAcquire(t, p, m.NewThread(0))
	p.sealForCore(m.NewThread(0), 0)
	p.markFree(m.NewThread(0), whole, t2)
	p.mu.Lock()
	split := p.splitFreeSlotsLocked(m.NewThread(0))
	p.mu.Unlock()
	if !split || p.numSlots() != 2 {
		t.Fatalf("split: %v, %d slots", split, p.numSlots())
	}
	var halves []*slot
	for core := range 2 {
		th := threadAt(m, core, 1_000)
		s := mustAcquire(t, p, th)
		if th.Clock.Now() < t2 {
			t.Fatalf("half %d of a slot freed at %d taken at %d vns", s.idx, t2, th.Clock.Now())
		}
		halves = append(halves, s)
	}

	for core, end := range []int64{t1, t2} {
		p.sealForCore(m.NewThread(core), core)
		p.markFree(m.NewThread(core), halves[core], end)
	}
	p.mu.Lock()
	merged := p.mergeFreeSlotsLocked(m.NewThread(0), t2)
	p.mu.Unlock()
	if !merged || p.numSlots() != 1 {
		t.Fatalf("merge: %v, %d slots", merged, p.numSlots())
	}
	th := threadAt(m, 0, t1-1)
	if s := mustAcquire(t, p, th); th.Clock.Now() < t2 {
		t.Fatalf("slot %d merged from halves freed at %d and %d taken at %d vns", s.idx, t1, t2, th.Clock.Now())
	}
}

// TestMergeStopsAtTheConfiguredSize: halves merge back into the slots the
// pool was carved into, and never into a slot larger than that, however long
// the pool stays calm; a split after a merge reuses the parked slot, so the
// geometry table does not grow.
func TestMergeStopsAtTheConfiguredSize(t *testing.T) {
	const slotBytes = 256 << 10
	p, m := testPool(t, 4, slotBytes, 1)
	for round := range 3 {
		p.mu.Lock()
		p.splitFreeSlotsLocked(m.NewThread(0))
		p.splitFreeSlotsLocked(m.NewThread(0))
		for p.mergeFreeSlotsLocked(m.NewThread(0), 0) {
		}
		p.mu.Unlock()
		if n := p.numSlots(); n != 4 {
			t.Fatalf("round %d: %d slots after merging, want the 4 the pool was carved into", round, n)
		}
		for _, s := range p.slotList() {
			if sz := s.size.Load(); sz > slotBytes {
				t.Fatalf("round %d: slot %d grew to %d bytes, past the configured %d", round, s.idx, sz, slotBytes)
			}
		}
		if n := len(p.slotList()); n != 16 {
			t.Fatalf("round %d: the geometry table has %d entries, want 16 (4 slots, 12 parked quarters)", round, n)
		}
	}
	if s, mg := p.splits.Load(), p.merges.Load(); s != 6 || mg != 6 {
		t.Fatalf("counted %d splits and %d merges, want 6 each", s, mg)
	}
}

// elasticRun is what must repeat between two runs of runElastic: the
// writer's clock, each flush's booked end in flush_end order, and the
// elasticity counts.
type elasticRun struct {
	clock          int64
	freeAt         []int64
	splits, merges int64
}

// runElastic runs one writer on four flush servers and a pool of three slots:
// a burst of 4 KiB puts with no think time outruns the flushes and splits the
// slots, FlushAll spills the ImmZone, then a calm stretch with think time
// between puts merges the halves back, and a last FlushAll spills again. The
// ImmZone holds either stretch whole: a spill that ran beside the flushes
// would change what their stores cost, by how the host interleaves the two
// streams at the PMem device, not by anything the pool decides.
func runElastic(t *testing.T) elasticRun {
	t.Helper()
	o := smallOpts()
	o.FlushThreads = 4
	o.PoolBytes = 1 << 20
	o.SubMemTableBytes = 256 << 10 // three slots
	o.ImmZoneBytes = 32 << 20
	o.FSBytes = 256 << 20
	o.Trace = obs.NewTrace(0)
	e, th := openEngine(t, testMachine(), o)
	defer e.Close(th)
	val := make([]byte, 4<<10)
	for i := range 3000 {
		if i >= 1500 {
			th.Clock.Advance(50_000)
		}
		if err := e.Put(th, []byte(fmt.Sprintf("key%06d", i*7919%3000)), val); err != nil {
			t.Fatal(err)
		}
		if i == 1499 || i == 2999 {
			if err := e.FlushAll(th); err != nil {
				t.Fatal(err)
			}
		}
	}
	_, _, freeAt := flushTimeline(o.Trace)
	r := elasticRun{th.Clock.Now(), freeAt, e.pool.splits.Load(), e.pool.merges.Load()}
	if r.splits == 0 || r.merges == 0 || e.stats.Spills.Load() == 0 {
		t.Fatalf("the load split %d times, merged %d times and spilled %d times; it must do all three",
			r.splits, r.merges, e.stats.Spills.Load())
	}
	return r
}

// TestElasticityRepeats: a writer's virtual schedule does not depend on how
// far the host's flush worker has got when it asks for a slot. Two runs of
// one writer that splits, merges and spills repeat its clock, every flush's
// booked end and the elasticity counts.
func TestElasticityRepeats(t *testing.T) {
	a, b := runElastic(t), runElastic(t)
	if a.clock != b.clock || a.splits != b.splits || a.merges != b.merges {
		t.Fatalf("runs differ: clock %d / %d vns, %d / %d splits, %d / %d merges",
			a.clock, b.clock, a.splits, b.splits, a.merges, b.merges)
	}
	if !slices.Equal(a.freeAt, b.freeAt) {
		t.Fatalf("flush ends differ: %d flushes / %d", len(a.freeAt), len(b.freeAt))
	}
	t.Logf("clock %d vns, %d flushes, %d splits, %d merges", a.clock, len(a.freeAt), a.splits, a.merges)
}
