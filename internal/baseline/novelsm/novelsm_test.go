package novelsm

import (
	"fmt"
	"testing"

	"cachekv/internal/baseline"
	"cachekv/internal/baseline/storetest"
	"cachekv/internal/hw"
)

func smallOpts(v baseline.Variant) Options {
	o := DefaultOptions()
	o.Variant = v
	o.DRAMMemBytes = 256 << 10
	o.MemBytes = 512 << 10
	o.SegmentBytes = 1 << 20
	o.FSBytes = 128 << 20
	return o
}

var engine = storetest.Engine{
	Name: "NoveLSM",
	Open: func(m *hw.Machine, th *hw.Thread, v baseline.Variant) (*baseline.Store, error) {
		return Open(m, smallOpts(v), th)
	},
}

// The behaviour NoveLSM shares with SLM-DB (package storetest).
func TestPutGetAllVariants(t *testing.T)  { storetest.Run(t, engine, storetest.PutGet) }
func TestNames(t *testing.T)              { storetest.Run(t, engine, storetest.Name) }
func TestDeleteAndOverwrite(t *testing.T) { storetest.Run(t, engine, storetest.DeleteOverwrite) }
func TestScan(t *testing.T)               { storetest.Run(t, engine, storetest.Scan) }
func TestConcurrentWritersSerialize(t *testing.T) {
	storetest.Run(t, engine, storetest.ConcurrentWriters)
}
func TestCrashRecoveryPMemTable(t *testing.T) { storetest.Run(t, engine, storetest.CrashRecovery) }
func TestFlushAllIdempotent(t *testing.T)     { storetest.Run(t, engine, storetest.FlushAllIdempotent) }

func TestRotationThroughBothTiers(t *testing.T) {
	cfg := hw.DefaultConfig()
	cfg.PMemBytes = 1 << 30
	m := hw.NewMachine(cfg)
	th := m.NewThread(0)
	db, err := Open(m, smallOpts(baseline.Vanilla), th)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(th)
	// Write enough to fill DRAM (256K) then PMem (512K) tables repeatedly.
	n := 40000
	for i := 0; i < n; i++ {
		k := []byte(fmt.Sprintf("key%08d", i))
		if err := db.Put(th, k, make([]byte, 48)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.FlushAll(th); err != nil {
		t.Fatal(err)
	}
	if db.Tree().GetStats().TablesFlushed == 0 {
		t.Fatal("no tables ever flushed despite rotations")
	}
	for i := 0; i < n; i += 997 {
		k := []byte(fmt.Sprintf("key%08d", i))
		if _, err := db.Get(th, k); err != nil {
			t.Fatalf("lost %s: %v", k, err)
		}
	}
}
