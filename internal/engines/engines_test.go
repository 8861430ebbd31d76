package engines_test

import (
	"strings"
	"testing"

	"cachekv"
	"cachekv/internal/engines"
	"cachekv/internal/hw"
)

// TestCatalogueNamesMatchEngines pins the catalogue against everything that
// used to keep a copy of it: the name each opened engine reports, the names
// the command lines and the public API accept, and the ADR-durability
// contract the crash harness judges by.
func TestCatalogueNamesMatchEngines(t *testing.T) {
	public := map[engines.Kind]cachekv.Engine{
		engines.CacheKV: cachekv.EngineCacheKV, engines.PCSM: cachekv.EnginePCSM, engines.PCSMLIU: cachekv.EnginePCSMLIU,
		engines.NoveLSM: cachekv.EngineNoveLSM, engines.NoveLSMWoFlush: cachekv.EngineNoveLSMNoFlush, engines.NoveLSMCache: cachekv.EngineNoveLSMCache,
		engines.SLMDB: cachekv.EngineSLMDB, engines.SLMDBWoFlush: cachekv.EngineSLMDBNoFlush, engines.SLMDBCache: cachekv.EngineSLMDBCache,
	}
	durableADR := map[engines.Kind]bool{engines.NoveLSM: true, engines.SLMDB: true}
	if len(engines.All()) != 9 || len(engines.Baselines()) != 6 {
		t.Fatalf("catalogue lists %d systems, %d baselines", len(engines.All()), len(engines.Baselines()))
	}
	for _, k := range engines.All() {
		cfg := hw.DefaultConfig()
		cfg.PMemBytes = 1 << 30
		m := hw.NewMachine(cfg)
		th := m.NewThread(0)
		db, err := engines.Open(k, m, th, engines.NewSizing(0, nil))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if db.Name() != k.String() {
			t.Errorf("catalogue calls it %q, the engine %q", k, db.Name())
		}
		if err := db.Close(th); err != nil {
			t.Errorf("%s: close: %v", k, err)
		}
		for _, name := range []string{k.String(), strings.ToLower(k.String()), strings.ToUpper(k.String()), string(public[k])} {
			if got, err := engines.Parse(name); err != nil || got != k {
				t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, k)
			}
		}
		if k.DurableADR() != durableADR[k] {
			t.Errorf("%s: DurableADR = %v, want %v", k, k.DurableADR(), durableADR[k])
		}
		if isBaseline := k.Family() != engines.FamilyCacheKV; isBaseline != (k < engines.PCSM) {
			t.Errorf("%s: family %v does not match its place among the baselines", k, k.Family())
		}
	}
	// An unknown name is an error that lists the valid ones; an unknown kind
	// still renders and does not open.
	if _, err := engines.Parse("rocksdb"); err == nil || !strings.Contains(err.Error(), "novelsm-w/o-flush") || !strings.Contains(err.Error(), "cachekv") {
		t.Errorf("unknown engine error = %v", err)
	}
	if engines.Kind(99).String() == "" {
		t.Error("unknown kind must still render")
	}
	if _, err := engines.Open(engines.Kind(99), nil, nil, engines.Sizing{}); err == nil {
		t.Error("unknown kind opened")
	}
}
