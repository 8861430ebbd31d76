// Package engines is the catalogue of the nine systems the paper evaluates:
// which engine a name means, what it is called, which ablation or flush
// variant it is, what it promises on an ADR platform, and how to open it.
// The public API, the evaluation harness and the crash harness all open
// engines through Open; each keeps only its own sizing (Sizing).
package engines

import (
	"fmt"
	"strings"

	"cachekv/internal/baseline"
	"cachekv/internal/baseline/novelsm"
	"cachekv/internal/baseline/slmdb"
	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
)

// Kind is one of the nine systems, numbered in the paper's display order.
type Kind int

// The nine systems of the evaluation section.
const (
	NoveLSM Kind = iota
	NoveLSMWoFlush
	NoveLSMCache
	SLMDB
	SLMDBWoFlush
	SLMDBCache
	PCSM
	PCSMLIU
	CacheKV
)

// Family is the implementation a Kind is a variant of.
type Family int

// The three implementations behind the nine systems.
const (
	FamilyNoveLSM Family = iota
	FamilySLMDB
	FamilyCacheKV
)

// catalogue is the one table of engine identity. name is what the opened
// engine's Name() returns; variant is a baseline's flush discipline;
// lazyIndex and listCompaction are the CacheKV family's ablation switches.
var catalogue = [...]struct {
	name                      string
	family                    Family
	variant                   baseline.Variant
	lazyIndex, listCompaction bool
}{
	NoveLSM:        {name: "NoveLSM", family: FamilyNoveLSM, variant: baseline.Vanilla},
	NoveLSMWoFlush: {name: "NoveLSM-w/o-flush", family: FamilyNoveLSM, variant: baseline.WithoutFlush},
	NoveLSMCache:   {name: "NoveLSM-cache", family: FamilyNoveLSM, variant: baseline.CacheSegments},
	SLMDB:          {name: "SLM-DB", family: FamilySLMDB, variant: baseline.Vanilla},
	SLMDBWoFlush:   {name: "SLM-DB-w/o-flush", family: FamilySLMDB, variant: baseline.WithoutFlush},
	SLMDBCache:     {name: "SLM-DB-cache", family: FamilySLMDB, variant: baseline.CacheSegments},
	PCSM:           {name: "PCSM", family: FamilyCacheKV},
	PCSMLIU:        {name: "PCSM+LIU", family: FamilyCacheKV, lazyIndex: true},
	CacheKV:        {name: "CacheKV", family: FamilyCacheKV, lazyIndex: true, listCompaction: true},
}

// All returns every system in the paper's display order.
func All() []Kind {
	all := make([]Kind, len(catalogue))
	for i := range all {
		all[i] = Kind(i)
	}
	return all
}

// Baselines returns the six non-CacheKV systems (Figures 4 and 5).
func Baselines() []Kind { return All()[:PCSM] }

func (k Kind) valid() bool { return k >= 0 && int(k) < len(catalogue) }

// String returns the engine's display name.
func (k Kind) String() string {
	if !k.valid() {
		return fmt.Sprintf("engine(%d)", int(k))
	}
	return catalogue[k].name
}

// Family returns the implementation k is a variant of.
func (k Kind) Family() Family { return catalogue[k].family }

// DurableADR is the engine's durability contract on an ADR platform: true
// means an acknowledged write survives a power failure even with volatile CPU
// caches. Only the vanilla baselines flush or log every write before acking;
// their -w/o-flush and -cache variants and the whole CacheKV family keep acked
// data in cache lines, which is the point of the eADR designs.
func (k Kind) DurableADR() bool {
	return k.Family() != FamilyCacheKV && catalogue[k].variant == baseline.Vanilla
}

// Parse resolves an engine name: the display name of one of All, in any
// letter case.
func Parse(name string) (Kind, error) {
	valid := make([]string, len(catalogue))
	for i, e := range catalogue {
		valid[i] = strings.ToLower(e.name)
		if strings.EqualFold(name, e.name) {
			return Kind(i), nil
		}
	}
	return 0, fmt.Errorf("unknown engine %q (valid: %s)", name, strings.Join(valid, ", "))
}

// Sizing is everything a caller decides about the engine it opens and nothing
// about which engine that is: one options value per family, of which Open uses
// the one its kind belongs to and overwrites the identity fields.
type Sizing struct {
	Core    core.Options
	NoveLSM novelsm.Options
	SLMDB   slmdb.Options
}

// NewSizing returns every family's default options with the two settings all
// three share: the SSTable file-layer capacity (0 = each family's default) and
// the lifecycle-event trace (nil = none).
func NewSizing(fsBytes uint64, tr *obs.Trace) Sizing {
	s := Sizing{core.DefaultOptions(), novelsm.DefaultOptions(), slmdb.DefaultOptions()}
	if fsBytes > 0 {
		s.Core.FSBytes, s.NoveLSM.FSBytes, s.SLMDB.FSBytes = fsBytes, fsBytes, fsBytes
	}
	s.Core.Trace, s.NoveLSM.Trace, s.SLMDB.Trace = tr, tr, tr
	return s
}

// Open opens engine k on machine m, recovering whatever m's PMem holds.
func Open(k Kind, m *hw.Machine, th *hw.Thread, s Sizing) (kvstore.DB, error) {
	if !k.valid() {
		return nil, fmt.Errorf("engines: unknown kind %d", int(k))
	}
	e := catalogue[k]
	switch e.family {
	case FamilyNoveLSM:
		s.NoveLSM.Variant = e.variant
		return novelsm.Open(m, s.NoveLSM, th)
	case FamilySLMDB:
		s.SLMDB.Variant = e.variant
		return slmdb.Open(m, s.SLMDB, th)
	default:
		s.Core.LazyIndex, s.Core.SkiplistCompaction = e.lazyIndex, e.listCompaction
		return core.Open(m, s.Core, th)
	}
}
