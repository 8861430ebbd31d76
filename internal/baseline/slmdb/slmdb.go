// Package slmdb reimplements SLM-DB (Kaiyrakhmet et al., USENIX FAST'19) as
// the paper describes and configures it: a single persistent MemTable in
// PMem (in-place durability, no WAL), a global B+-tree in PMem that maps
// every persisted key to the SSTable holding it, and a *single-level* LSM
// organization — SSTables live in one level and are located via the B+-tree
// rather than by level search, so no hierarchical compaction runs.
//
// Everything but the B+-tree, the single level and the MemTable's insert
// cost is the shared baseline.Store. The paper's eADR variants apply exactly
// as for NoveLSM: -w/o-flush drops the flush instructions; -cache stages the
// MemTable through pinned LLC segments (with the MemTable enlarged to 4 GiB,
// scaled here).
package slmdb

import (
	"cachekv/internal/baseline"
	"cachekv/internal/btree"
	"cachekv/internal/hw"
	"cachekv/internal/lsm"
	"cachekv/internal/util"
)

// Options configure an SLM-DB instance: the shared baseline sizes, whose
// MemBytes is the persistent MemTable (8 MiB scaled; paper 64 MiB, 4 GiB for
// the -cache comparison).
type Options = baseline.Options

// DefaultOptions returns the scaled evaluation configuration.
func DefaultOptions() Options { return baseline.DefaultOptions(8 << 20) }

// DB is an SLM-DB instance.
type DB struct {
	*baseline.Store
	index *globalIndex
}

// Open creates (or recovers) an SLM-DB instance on machine m.
func Open(m *hw.Machine, opts Options, th *hw.Thread) (*DB, error) {
	opts.LSM.SingleLevel = true
	ix := &globalIndex{m: m, tree: btree.New(), indexed: make(map[uint64]bool)}
	s, err := baseline.Open(m, opts, baseline.Engine{
		Name: "SLM-DB", Prefix: "slmdb", Seed: 13,
		// SLM-DB's persistent MemTable pays for allocator metadata and
		// validity-bitmap persistence on every insert; the paper measures it
		// as the slowest writer of the group (Figures 5(a), 10, 12(b)).
		ExtraWriteNs: 4000,
		Tier:         baseline.PMem{},
		Index:        ix,
	}, th)
	if err != nil {
		return nil, err
	}
	return &DB{Store: s, index: ix}, nil
}

// Index exposes the global B+-tree (tests).
func (db *DB) Index() *btree.Tree { return db.index.tree }

// globalIndex is SLM-DB's global B+-tree in PMem: user key -> SSTable number
// (fixed64). Queries pay PMem latency per node hop; updates happen at flush
// time, contending with reads on the tree's own lock — the paper's
// explanation for SLM-DB's flat multi-thread read scaling.
type globalIndex struct {
	m       *hw.Machine
	tree    *btree.Tree
	indexed map[uint64]bool // the tables Sync has walked
}

// charge converts B+-tree node hops into PMem latency on th.
func (x *globalIndex) charge(th *hw.Thread) btree.ChargeFunc {
	return func(visits int) {
		th.Clock.Advance(int64(visits) * x.m.Costs.PMemReadRand)
	}
}

// Sync points the B+-tree at every user key of each table the single level
// gained since the last call. At open that is every table: SLM-DB persists
// its B+-tree, and rebuilding it pays the equivalent scan once.
func (x *globalIndex) Sync(th *hw.Thread, tree *lsm.Tree) {
	for _, f := range tree.Files(1) {
		if x.indexed[f.Num] {
			continue
		}
		x.indexed[f.Num] = true
		it, err := tree.TableIterator(th, f.Num)
		if err != nil {
			continue
		}
		it.SeekToFirst()
		var lastUser []byte
		charge := x.charge(th)
		for it.Valid() {
			u := it.Key().UserKey()
			if lastUser == nil || string(u) != string(lastUser) {
				x.tree.Insert(append([]byte(nil), u...), util.PutFixed64(nil, f.Num), charge)
				lastUser = append(lastUser[:0], u...)
			}
			it.Next()
		}
	}
}

// Get is SLM-DB's directed read: one B+-tree lookup names the one table that
// can hold key.
func (x *globalIndex) Get(th *hw.Thread, tree *lsm.Tree, key []byte, snapshot uint64) ([]byte, uint64, util.ValueKind, bool, error) {
	loc, ok := x.tree.Get(key, x.charge(th))
	if !ok {
		return nil, 0, 0, false, nil
	}
	return tree.GetInTable(th, util.Fixed64(loc), key, snapshot)
}
