package lsm

import (
	"fmt"
	"testing"
	"testing/quick"

	"cachekv/internal/hw"
	"cachekv/internal/hw/sim"
	"cachekv/internal/pmemfs"
	"cachekv/internal/skiplist"
	"cachekv/internal/util"
)

// TestPropertyTreeMatchesModel drives the tree with random batches of puts
// and deletes (flushed as memtables), interleaving compaction pressure, and
// checks every key against a model map — including across a crash-reopen.
func TestPropertyTreeMatchesModel(t *testing.T) {
	f := func(batchSeeds []uint16, crash bool) bool {
		if len(batchSeeds) == 0 {
			return true
		}
		if len(batchSeeds) > 8 {
			batchSeeds = batchSeeds[:8]
		}
		m := hw.NewMachine(hw.Config{PMemBytes: 512 << 20})
		th := m.NewThread(0)
		fs, err := pmemfs.Mount(m, m.Alloc("fs", 256<<20, 0), th)
		if err != nil {
			return false
		}
		manifest := m.Alloc("manifest", 4<<20, 0)
		opts := Options{L0CompactionTrigger: 2, BaseLevelBytes: 32 << 10, TableFileSize: 16 << 10}
		tr, err := Open(m, fs, manifest, opts, th)
		if err != nil {
			return false
		}
		model := map[string]string{}
		seq := uint64(1)
		for bi, bs := range batchSeeds {
			rng := sim.NewRNG(uint64(bs) + 1)
			l := skiplist.New(icmpBytes, uint64(bi+1))
			var maxSeq uint64
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("key%03d", rng.Intn(300))
				if rng.Intn(8) == 0 {
					ik := util.MakeInternalKey(nil, []byte(k), seq, util.KindDelete)
					l.Insert(ik, nil, nil)
					delete(model, k)
				} else {
					v := fmt.Sprintf("v%d-%d", bi, i)
					ik := util.MakeInternalKey(nil, []byte(k), seq, util.KindValue)
					l.Insert(ik, []byte(v), nil)
					model[k] = v
				}
				maxSeq = seq
				seq++
			}
			if err := tr.Flush(th, newMemIter(l), maxSeq); err != nil {
				return false
			}
		}
		if crash {
			m.Crash()
			m.Recover()
			th = m.NewThread(0) // the old boot's thread would store nothing
			tr, err = Open(m, fs, manifest, opts, th)
			if err != nil {
				return false
			}
		}
		for k, want := range model {
			v, _, found, deleted, err := tr.Get(th, []byte(k), util.MaxSequence)
			if err != nil || !found || deleted || string(v) != want {
				return false
			}
		}
		for i := 0; i < 300; i++ {
			k := fmt.Sprintf("key%03d", i)
			if _, ok := model[k]; ok {
				continue
			}
			_, _, found, _, err := tr.Get(th, []byte(k), util.MaxSequence)
			if err != nil || found {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
