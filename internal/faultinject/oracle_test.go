package faultinject

import (
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"

	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/kvstore"
)

func putStep(kv ...string) Step {
	var s Step
	for i := 0; i < len(kv); i += 2 {
		s.Muts = append(s.Muts, Mutation{Key: kv[i], Value: kv[i+1]})
	}
	return s
}

func delStep(keys ...string) Step {
	var s Step
	for _, k := range keys {
		s.Muts = append(s.Muts, Mutation{Key: k, Delete: true})
	}
	return s
}

func rejected(s Step) Step {
	s.Deadline, s.Reject = hopelessDeadline, true
	return s
}

// TestJudgeClauses is the reference model's clause table: one hand-built
// script and recovered state per clause of the crash contract, each asserted
// to be a violation of that clause or clean. No engine is involved.
func TestJudgeClauses(t *testing.T) {
	// Steps 0-3 acknowledged and step 4 in flight at inflight 4; "d" is in
	// the universe and never written.
	single := newScript([]Step{
		putStep("a", "a0"),
		putStep("b", "b1"),
		putStep("a", "a2"),
		delStep("b"),
		putStep("c", "c4"),
	}, "d")
	reject := newScript([]Step{
		putStep("a", "a0"),
		rejected(putStep("r", "r1")),
		putStep("c", "c2"),
		rejected(putStep("s", "s3", "t", "t3")),
	})
	batch := newScript([]Step{
		putStep("x", "x0", "y", "y0"),
		putStep("z", "z1"),
		delStep("x", "y"),
	})
	type kv = map[string]string
	for _, c := range []struct {
		name            string
		sc              Script
		inflight        int
		durable, atomic bool
		recovered       kv
		want            string // substring of the one violation; "" = clean
	}{
		{"acked writes all present", single, 4, true, true, kv{"a": "a2"}, ""},
		{"acked put lost, durable", single, 4, true, true, kv{}, `key "a": recovered <absent>, lost: step 2`},
		{"acked put lost, not durable", single, 4, false, true, kv{}, ""},
		{"acked delete resurrected, durable", single, 4, true, true, kv{"a": "a2", "b": "b1"}, `key "b": recovered "b1", resurrected: step 3`},
		{"acked delete undone, not durable", single, 4, false, true, kv{"a": "a2", "b": "b1"}, ""},
		{"in-flight put applied", single, 4, true, true, kv{"a": "a2", "c": "c4"}, ""},
		{"in-flight put not applied", single, 4, true, true, kv{"a": "a2"}, ""},
		{"in-flight delete applied", single, 3, true, true, kv{"a": "a2"}, ""},
		{"in-flight delete not applied", single, 3, true, true, kv{"a": "a2", "b": "b1"}, ""},
		{"older than the last acked value, durable", single, 4, true, true, kv{"a": "a0"}, `key "a": recovered "a0", stale: step 2`},
		{"older than the last acked value, a valid prefix", single, 4, false, true, kv{"a": "a0"}, ""},
		{"value nothing wrote, durable", single, 4, true, true, kv{"a": "a9"}, `key "a": recovered "a9", fabricated`},
		{"value nothing wrote, not durable", single, 4, false, false, kv{"a": "a9"}, `key "a": recovered "a9", fabricated`},
		{"value another key's step wrote", single, 4, false, false, kv{"a": "b1"}, `key "a": recovered "b1", fabricated`},
		{"never-written key of the universe", single, 4, false, false, kv{"a": "a2", "d": "a2"}, `key "d": recovered "a2", fabricated`},
		{"key of a never-issued step", single, 2, false, false, kv{"a": "a0", "c": "c4"}, `key "c": recovered "c4", step 4 was never issued`},
		{"never-issued overwrite", single, 1, true, true, kv{"a": "a2"}, `key "a": recovered "a2", step 2 was never issued`},
		{"completed script", single, 5, true, true, kv{"a": "a2", "c": "c4"}, ""},
		{"completed script, last put lost", single, 5, true, true, kv{"a": "a2"}, `key "c": recovered <absent>, lost: step 4`},

		{"rejections absent", reject, 4, true, true, kv{"a": "a0", "c": "c2"}, ""},
		{"acked rejection leaked", reject, 4, true, true, kv{"a": "a0", "c": "c2", "r": "r1"}, `key "r": recovered "r1", rejected step 1 leaked`},
		{"acked rejection leaked, not durable", reject, 4, false, false, kv{"r": "r1"}, `key "r": recovered "r1", rejected step 1 leaked`},
		{"in-flight rejection leaked", reject, 1, true, true, kv{"a": "a0", "r": "r1"}, `key "r": recovered "r1", rejected step 1 leaked`},
		{"half of a rejected batch leaked", reject, 3, true, true, kv{"a": "a0", "c": "c2", "t": "t3"}, `key "t": recovered "t3", rejected step 3 leaked`},

		{"in-flight batch whole", batch, 0, true, true, kv{"x": "x0", "y": "y0"}, ""},
		{"in-flight batch absent", batch, 0, true, true, kv{}, ""},
		{"in-flight batch half-present, atomic", batch, 0, true, true, kv{"x": "x0"}, `step 0 half-applied: key "y" recovered from before it, key "x" from after it`},
		{"in-flight batch half-present, not atomic", batch, 0, false, false, kv{"x": "x0"}, ""},
		{"acked batch half-present, not durable but atomic", batch, 1, false, true, kv{"y": "y0"}, `step 0 half-applied`},
		{"acked batch half-present, neither", batch, 1, false, false, kv{"y": "y0"}, ""},
		{"put batch acked, delete batch in flight: all present", batch, 2, true, true, kv{"x": "x0", "y": "y0", "z": "z1"}, ""},
		{"put batch acked, delete batch in flight: all absent", batch, 2, true, true, kv{"z": "z1"}, ""},
		{"put batch acked, delete batch in flight: mixed", batch, 2, true, true, kv{"x": "x0", "z": "z1"}, `step 2 half-applied: key "x" recovered from before it, key "y" from after it`},
		// y is absent before the put batch and after the delete batch, x only
		// between them: whichever side explains y, one of the two batches tore.
		{"tear across two batches, not durable but atomic", batch, 2, false, true, kv{"x": "x0"}, `step 2 half-applied`},
		{"both batches lost, not durable but atomic", batch, 2, false, true, kv{}, ""},
		{"delete batch acked, a key back", batch, 3, true, true, kv{"y": "y0", "z": "z1"}, `key "y": recovered "y0", resurrected: step 2`},
	} {
		got := judge(&c.sc, c.inflight, c.durable, c.atomic, c.recovered)
		switch {
		case c.want == "" && len(got) > 0:
			t.Errorf("%s: flagged a clean recovery: %v", c.name, got)
		case c.want != "" && (len(got) != 1 || !strings.Contains(got[0], c.want)):
			t.Errorf("%s: got %q, want one violation containing %q", c.name, got, c.want)
		}
	}
}

// fakeDB answers Get from one map and Scan from a list, so the two can be
// made to disagree. Only the oracle's probe reads it.
type fakeDB struct {
	gets   map[string]string
	scan   [][2]string // what Scan yields, in this order
	broken string      // a key whose Get fails
}

// newFakeDB is a consistent store holding state.
func newFakeDB(state map[string]string) *fakeDB {
	db := &fakeDB{gets: state}
	for k, v := range state {
		db.scan = append(db.scan, [2]string{k, v})
	}
	sort.Slice(db.scan, func(i, j int) bool { return db.scan[i][0] < db.scan[j][0] })
	return db
}

func (f *fakeDB) Get(_ *hw.Thread, key []byte) ([]byte, error) {
	if f.broken != "" && string(key) == f.broken {
		return nil, errors.New("media error")
	}
	if v, ok := f.gets[string(key)]; ok {
		return []byte(v), nil
	}
	return nil, kvstore.ErrNotFound
}

func (f *fakeDB) Scan(_ *hw.Thread, _ []byte, _ int, fn func(key, value []byte) bool) (int, error) {
	for i, e := range f.scan {
		if !fn([]byte(e[0]), []byte(e[1])) {
			return i + 1, nil
		}
	}
	return len(f.scan), nil
}

func (f *fakeDB) Put(*hw.Thread, []byte, []byte) error { return errors.New("fakeDB is read-only") }
func (f *fakeDB) Delete(*hw.Thread, []byte) error      { return errors.New("fakeDB is read-only") }
func (f *fakeDB) FlushAll(*hw.Thread) error            { return nil }
func (f *fakeDB) Close(*hw.Thread) error               { return nil }
func (f *fakeDB) Name() string                         { return "fake" }

// stuckStore is a recovered engine that never left the Stop state.
type stuckStore struct{ core.Store }

func (stuckStore) FlowState() core.FlowState { return core.FlowStop }
func (stuckStore) Write(*hw.Thread, *core.Batch, int64) error {
	return core.ErrStalled
}

// TestProbeClauses is the probe half's clause table: what the oracle reads
// off a recovered engine before the model sees any of it.
func TestProbeClauses(t *testing.T) {
	keys := []string{"a", "b"}
	type kv = map[string]string
	type rows = [][2]string
	for _, c := range []struct {
		name string
		db   *fakeDB
		want []string // one substring per violation, in order
	}{
		{"consistent", newFakeDB(kv{"a": "1", "b": "2"}), nil},
		{"empty", newFakeDB(kv{}), nil},
		{"ghost key readable", &fakeDB{gets: kv{"zz-ghost-1": "g"}}, []string{`ghost key "zz-ghost-1" readable: "g"`}},
		{"scan key outside the universe", &fakeDB{scan: rows{{"q", "1"}}}, []string{`scan: fabricated key "q" = "1"`}},
		{"scan sees what get does not", &fakeDB{scan: rows{{"a", "1"}}}, []string{`scan/get disagree on "a": scan "1", get <absent>`}},
		{"scan and get see different values", &fakeDB{gets: kv{"a": "1"}, scan: rows{{"a", "2"}}}, []string{`scan/get disagree on "a": scan "2", get "1"`}},
		{"get sees what scan does not", &fakeDB{gets: kv{"b": "2"}}, []string{`key "b" visible to get ("2") but missing from scan`}},
		{"scan out of order", &fakeDB{gets: kv{"a": "1", "b": "2"}, scan: rows{{"b", "2"}, {"a", "1"}}}, []string{`scan: "a" after "b", not strictly ascending`}},
		{"scan repeats a key", &fakeDB{gets: kv{"a": "1"}, scan: rows{{"a", "1"}, {"a", "1"}}}, []string{`scan: "a" after "a", not strictly ascending`}},
		{"get fails", &fakeDB{broken: "a"}, []string{`get "a": unexpected error media error`}},
	} {
		recovered, got := probe(c.db, nil, keys)
		if len(got) != len(c.want) {
			t.Errorf("%s: got %q, want %d violation(s) %q", c.name, got, len(c.want), c.want)
			continue
		}
		for i := range got {
			if !strings.Contains(got[i], c.want[i]) {
				t.Errorf("%s: violation %d is %q, want it to contain %q", c.name, i, got[i], c.want[i])
			}
		}
		view := kv{}
		for _, k := range keys {
			if v, ok := c.db.gets[k]; ok && k != c.db.broken {
				view[k] = v
			}
		}
		if !reflect.DeepEqual(recovered, view) {
			t.Errorf("%s: recovered view %v, Get answers %v", c.name, recovered, view)
		}
	}

	// The recovered-engine clause needs a core.Store: a real engine is clean,
	// the same engine reporting Stop and refusing the probe write is not.
	spec, _ := FindEngine("cachekv")
	m := NewMachine(cache.EADR)
	th := m.NewThread(0)
	db, err := spec.Open(m, th, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close(th)
	if _, got := probe(stuckStore{db.(core.Store)}, th, keys); len(got) != 2 ||
		!strings.Contains(got[0], "stuck in flow state") || !strings.Contains(got[1], "rejected a healthy write") {
		t.Errorf("stuck engine: got %q", got)
	}
	if _, got := probe(db, th, keys); len(got) != 0 {
		t.Errorf("healthy engine: got %q", got)
	}
}
