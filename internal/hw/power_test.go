package hw

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"cachekv/internal/hw/cache"
)

// These tests pin the power rule: from Crash to Recover nothing stores, and a
// thread of an earlier boot never stores again, under either domain.

func bothDomains(t *testing.T, fn func(t *testing.T, m *Machine)) {
	for _, d := range []cache.Domain{cache.ADR, cache.EADR} {
		t.Run(d.String(), func(t *testing.T) { fn(t, NewMachine(testCfg(d))) })
	}
}

// media returns r's bytes on the media.
func media(m *Machine, r Region) []byte {
	b := make([]byte, r.Size)
	m.PMem.LoadRaw(r.Addr, b)
	return b
}

// storeAll issues one of every refusable operation over r from th and returns
// how many it issued.
func storeAll(m *Machine, th *Thread, r Region) int64 {
	junk := bytes.Repeat([]byte{0x5A}, int(r.Size))
	m.Cache.Write(th.Clock, r.Addr+8, junk[:100], cache.DefaultPartition)
	m.Cache.NTWrite(th.Clock, r.Addr, junk)
	m.Cache.Flush(th.Clock, r.Addr, int(r.Size))
	m.Cache.FlushOpt(th.Clock, r.Addr, int(r.Size))
	m.Cache.Invalidate(r.Addr, int(r.Size))
	return 5
}

// TestNothingStoresWhileThePowerIsOff: stores, NT stores, flushes and
// invalidates issued between Crash and Recover — by a thread of the boot that
// crashed or by one created meanwhile — change no media byte and no device
// counter, are counted, and leave the lines written before the crash readable.
func TestNothingStoresWhileThePowerIsOff(t *testing.T) {
	bothDomains(t, func(t *testing.T, m *Machine) {
		r := m.Alloc("data", 4096, 0)
		th := m.NewThread(0)
		m.Cache.NTWrite(th.Clock, r.Addr, bytes.Repeat([]byte{1}, int(r.Size)))
		m.Cache.Write(th.Clock, r.Addr, []byte("cached"), cache.DefaultPartition)
		m.Crash()
		onMedia, before := media(m, r), m.PMem.Snapshot()
		refused := m.Cache.Stats().PostCrashStores

		n := storeAll(m, th, r) + storeAll(m, m.NewThread(1), r)
		if after := m.PMem.Snapshot(); after != before {
			t.Errorf("device counters moved after Crash:\n before %+v\n after  %+v", before, after)
		}
		if !bytes.Equal(media(m, r), onMedia) {
			t.Error("media bytes changed after Crash")
		}
		if got := m.Cache.Stats().PostCrashStores - refused; got != n {
			t.Errorf("PostCrashStores counted %d refusals, want %d", got, n)
		}
		// A running job still reads what the cache held at the crash.
		buf := make([]byte, 6)
		m.Cache.Read(th.Clock, r.Addr, buf, cache.DefaultPartition)
		if string(buf) != "cached" {
			t.Errorf("read between Crash and Recover = %q, want the cached line", buf)
		}
		if after := m.PMem.Snapshot(); after != before {
			t.Errorf("a read after Crash moved the device counters")
		}
	})
}

// TestAStaleThreadNeverStores: after Recover, a thread created before the
// crash — or between Crash and Recover — stores nothing, while one created
// after Recover stores as usual; and the line only the cache held under ADR
// is gone.
func TestAStaleThreadNeverStores(t *testing.T) {
	bothDomains(t, func(t *testing.T, m *Machine) {
		r := m.Alloc("data", 4096, 0)
		old := m.NewThread(0)
		m.Cache.NTWrite(old.Clock, r.Addr, bytes.Repeat([]byte{1}, int(r.Size)))
		m.Cache.Write(old.Clock, r.Addr, []byte("cached"), cache.DefaultPartition)
		m.Crash()
		between := m.NewThread(1)
		m.Recover()
		if m.Crashed() {
			t.Fatal("Recover left the machine crashed")
		}
		onMedia, before := media(m, r), m.PMem.Snapshot()
		wantFirst := "cached"
		if m.Cache.Domain() == cache.ADR {
			wantFirst = string([]byte{1, 1, 1, 1, 1, 1})
		}
		if string(onMedia[:6]) != wantFirst {
			t.Fatalf("after Recover the media holds %q, want %q", onMedia[:6], wantFirst)
		}
		if present, _ := m.Cache.Contains(r.Addr); present {
			t.Fatal("a line survived Recover")
		}

		n := storeAll(m, old, r) + storeAll(m, between, r) - 2 // Invalidate is refused only while the power is off
		if after := m.PMem.Snapshot(); after != before || !bytes.Equal(media(m, r), onMedia) {
			t.Error("a thread of an earlier boot reached the media")
		}
		if got := m.Cache.Stats().PostCrashStores; got != n {
			t.Errorf("PostCrashStores = %d, want %d", got, n)
		}
		buf := make([]byte, 6)
		fresh := m.NewThread(0)
		m.Cache.Read(fresh.Clock, r.Addr, buf, cache.DefaultPartition)
		if string(buf) != wantFirst {
			t.Errorf("a stale thread's store is visible: read %q, want %q", buf, wantFirst)
		}
		m.Cache.Write(fresh.Clock, r.Addr, []byte("reborn"), cache.DefaultPartition)
		m.Cache.Flush(fresh.Clock, r.Addr, 6)
		if got := media(m, r); string(got[:6]) != "reborn" {
			t.Errorf("a thread of the new boot could not store: media holds %q", got[:6])
		}
	})
}

// TestCrashStopsStoresInFlight: writers, NT writers, flushers and readers
// keep running across Crash. Once Crash has returned, no device counter and
// no media byte moves; after Recover the cache holds no line they wrote.
func TestCrashStopsStoresInFlight(t *testing.T) {
	bothDomains(t, func(t *testing.T, m *Machine) {
		r := m.Alloc("data", 1<<20, 0)
		pinned, err := m.Cache.Reserve(64 << 10)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		for g := range 4 {
			wg.Add(1)
			th := m.NewThread(g)
			go func() {
				defer wg.Done()
				page := bytes.Repeat([]byte{byte(g + 1)}, 4096)
				for i := uint64(0); ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					at := r.Addr + (i*4096*uint64(g+1))%(r.Size-4096)
					switch g {
					case 0:
						m.Cache.Write(th.Clock, at+3, page[:700], cache.DefaultPartition)
						m.Cache.FlushOpt(th.Clock, at, 700)
					case 1:
						m.Cache.NTWrite(th.Clock, at+5, page[:3000])
					case 2:
						m.Cache.Write(th.Clock, r.Addr+i%16*4096, page[:200], pinned)
					default:
						m.Cache.Read(th.Clock, at, page[:512], cache.DefaultPartition)
					}
				}
			}()
		}
		defer func() { close(stop); wg.Wait() }() // after Recover they are stale: refused too
		th := m.NewThread(5)
		for m.Cache.Stats().Misses < 1000 {
			m.Cache.Read(th.Clock, r.Addr, make([]byte, 64), cache.DefaultPartition)
		}
		m.Crash()
		onMedia, before := media(m, r), m.PMem.Snapshot()
		for deadline := time.Now().Add(10 * time.Second); m.Cache.Stats().PostCrashStores < 100; {
			if time.Now().After(deadline) {
				t.Fatal("the writers stored on after Crash: nothing was refused")
			}
			m.Cache.Read(th.Clock, r.Addr, make([]byte, 64), cache.DefaultPartition)
		}
		after := m.PMem.Snapshot()
		m.Recover()
		if after != before {
			t.Errorf("device counters moved after Crash returned:\n before %+v\n after  %+v", before, after)
		}
		if !bytes.Equal(media(m, r), onMedia) {
			t.Error("media bytes changed after Crash returned")
		}
		for a := r.Addr; a < r.End(); a += 64 {
			if present, _ := m.Cache.Contains(a); present {
				t.Fatalf("line %#x survived Recover", a)
			}
		}
	})
}
