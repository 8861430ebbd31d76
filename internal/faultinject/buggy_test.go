package faultinject

import (
	"flag"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
	"cachekv/internal/obs"
	"cachekv/internal/util"
	"cachekv/internal/wal"
)

// shimDB is a deliberately minimal engine — a WAL over PMem plus a DRAM map —
// built to prove the oracle's teeth. The skipFlush variant acknowledges every
// write after plain cached stores (wal.ModeCached: no clwb, no fence) while
// still *claiming* ADR durability; a correct build uses wal.ModeFlush. The
// harness must catch the lie and pass the honest build.
type shimDB struct {
	m   *hw.Machine
	w   *wal.Writer
	mem map[string]string
}

const (
	shimPut byte = 1
	shimDel byte = 2
)

func shimEncode(kind byte, key, value []byte) []byte {
	rec := []byte{kind}
	rec = util.PutFixed32(rec, uint32(len(key)))
	rec = append(rec, key...)
	return append(rec, value...)
}

func openShim(m *hw.Machine, th *hw.Thread, mode wal.Mode) (kvstore.DB, error) {
	region, ok := m.LookupRegion("shim-wal")
	if !ok {
		region = m.Alloc("shim-wal", 4<<20, 256)
	}
	db := &shimDB{m: m, mem: make(map[string]string)}
	r := wal.NewReader(m, region)
	err := r.ReplayAll(th, func(rec []byte) error {
		if len(rec) < 5 {
			return util.ErrCorrupt
		}
		klen := int(util.Fixed32(rec[1:]))
		if 5+klen > len(rec) {
			return util.ErrCorrupt
		}
		key := string(rec[5 : 5+klen])
		if rec[0] == shimDel {
			delete(db.mem, key)
		} else {
			db.mem[key] = string(rec[5+klen:])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.w = wal.NewWriterMode(m, region, th, mode)
	return db, nil
}

func (s *shimDB) Put(th *hw.Thread, key, value []byte) error {
	if _, err := s.w.Append(th, shimEncode(shimPut, key, value)); err != nil {
		return err
	}
	s.mem[string(key)] = string(value)
	return nil
}

func (s *shimDB) Delete(th *hw.Thread, key []byte) error {
	if _, err := s.w.Append(th, shimEncode(shimDel, key, nil)); err != nil {
		return err
	}
	delete(s.mem, string(key))
	return nil
}

func (s *shimDB) Get(th *hw.Thread, key []byte) ([]byte, error) {
	v, ok := s.mem[string(key)]
	if !ok {
		return nil, kvstore.ErrNotFound
	}
	return []byte(v), nil
}

func (s *shimDB) Scan(th *hw.Thread, start []byte, limit int, fn func(key, value []byte) bool) (int, error) {
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		if k >= string(start) {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	n := 0
	for _, k := range keys {
		if limit > 0 && n >= limit {
			break
		}
		n++
		if !fn([]byte(k), []byte(s.mem[k])) {
			break
		}
	}
	return n, nil
}

func (s *shimDB) FlushAll(th *hw.Thread) error { return nil }
func (s *shimDB) Close(th *hw.Thread) error    { return nil }
func (s *shimDB) Name() string                 { return "shim" }

func shimSpec(skipFlush bool) EngineSpec {
	mode := wal.ModeFlush
	name := "shim-flush"
	if skipFlush {
		mode = wal.ModeCached
		name = "shim-noflush"
	}
	return EngineSpec{
		Name:       name,
		DurableADR: true, // the honest build earns this; the buggy build lies
		Open: func(m *hw.Machine, th *hw.Thread, _ *obs.Trace) (kvstore.DB, error) {
			return openShim(m, th, mode)
		},
	}
}

// TestMissingFenceBugCaught plants a missing-fence bug (acks on cached
// stores, no flush) in an engine that contracts ADR durability and demands
// the sweep catch it: at least one crash schedule must lose an acknowledged
// write. The failing schedule must then reproduce from its tuple alone, and
// the identical engine with the flush restored must pass every crash point.
func TestMissingFenceBugCaught(t *testing.T) {
	fam := singleKeyFamily(3, 120)

	buggy := shimSpec(true)
	total, _, err := Count(buggy, cache.ADR, fam)
	if err != nil {
		t.Fatal(err)
	}
	var caught []*Result
	for k := int64(1); k <= total; k++ {
		if r := Run(buggy, cache.ADR, fam, k, FaultNone, nil); r.Failed() {
			caught = append(caught, r)
		}
	}
	if len(caught) == 0 {
		t.Fatalf("oracle missed the missing-fence bug across all %d crash points", total)
	}
	t.Logf("missing fence caught at %d/%d crash points; first: %v", len(caught), total, caught[0].Err())

	// Reproduce the first catch from nothing but the command line its
	// failure report prints: parse the flags back the way crashsweep does
	// and rebuild family, domain and fault from their printed names.
	line := caught[0].Schedule.Reproduce()
	fs := flag.NewFlagSet("crashsweep", flag.ContinueOnError)
	family, engine := fs.String("family", "", ""), fs.String("engine", "", "")
	domain, fault := fs.String("domain", "", ""), fs.String("fault", "", "")
	seed, ops, crashAt := fs.Uint64("seed", 0, ""), fs.Int("ops", 0, ""), fs.Int64("crash-at", 0, "")
	if err := fs.Parse(strings.Fields(line)[1:]); err != nil {
		t.Fatalf("reproduce line %q does not parse: %v", line, err)
	}
	if *engine != buggy.Name {
		t.Fatalf("reproduce line %q names engine %q, want %q", line, *engine, buggy.Name)
	}
	refam, err := NewFamily(*family, *seed, *ops)
	if err != nil {
		t.Fatal(err)
	}
	dom, err := ParseDomain(*domain)
	if err != nil {
		t.Fatal(err)
	}
	flt, err := ParseFault(*fault)
	if err != nil {
		t.Fatal(err)
	}
	replay := Run(buggy, dom, refam, *crashAt, flt, nil)
	if replay.StreamHash != caught[0].StreamHash {
		t.Fatalf("%q produced a different event stream", line)
	}
	if !reflect.DeepEqual(replay.Violations, caught[0].Violations) {
		t.Fatalf("%q did not reproduce the violation: %v, want %v", line, replay.Violations, caught[0].Violations)
	}

	// Control: restore the flush and the same sweep must be clean.
	good := shimSpec(false)
	goodTotal, _, err := Count(good, cache.ADR, fam)
	if err != nil {
		t.Fatal(err)
	}
	for k := int64(1); k <= goodTotal; k++ {
		if r := Run(good, cache.ADR, fam, k, FaultNone, nil); r.Failed() {
			t.Fatalf("correct flush discipline flagged: %v", r.Err())
		}
	}
}
