package lsm

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"cachekv/internal/util"
)

// sampleEdit is a manifest record with every field in use.
func sampleEdit() *versionEdit {
	ik := func(k string, seq uint64) util.InternalKey {
		return util.MakeInternalKey(nil, []byte(k), seq, util.KindValue)
	}
	return &versionEdit{
		added: []addedFile{
			{level: 0, meta: FileMeta{Num: 7, Size: 4096, Count: 12, Smallest: ik("a", 3), Largest: ik("m", 9),
				RangeDels: []RangeDel{{Start: []byte("b"), End: []byte("d"), Seq: 8}}}},
			{level: 6, meta: FileMeta{Num: 8, Size: 1 << 40, Count: 1, Smallest: ik("n", 1), Largest: ik("n", 1)}},
		},
		deleted:  []deletedFile{{level: 1, num: 3}, {level: 2, num: 4}},
		nextFile: 9,
		lastSeq:  1 << 50,
	}
}

func TestEditRoundTrip(t *testing.T) {
	want := sampleEdit()
	got, err := decodeEdit(want.encode(), 7)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeEdit(encode) = %+v, %v; want %+v", got, err, want)
	}
	// The tree indexes its level slices by a record's level numbers.
	if _, err := decodeEdit(want.encode(), 6); !errors.Is(err, util.ErrCorrupt) {
		t.Fatalf("a level-6 file decoded for a six-level tree: %v", err)
	}
}

// FuzzDecodeEdit decodes arbitrary bytes as a manifest record: ErrCorrupt, or
// an edit whose levels index a seven-level tree and which survives its own
// encoding, having allocated in proportion to the record's length and not to
// a count inside it.
func FuzzDecodeEdit(f *testing.F) {
	f.Add(sampleEdit().encode())
	f.Fuzz(func(t *testing.T, rec []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		e, err := decodeEdit(rec, 7)
		runtime.ReadMemStats(&after)
		if n, budget := after.TotalAlloc-before.TotalAlloc, uint64(64<<10+64*len(rec)); n > budget {
			t.Fatalf("decoding a %d-byte record allocated %d bytes (budget %d)", len(rec), n, budget)
		}
		if err != nil {
			if !errors.Is(err, util.ErrCorrupt) || e != nil {
				t.Fatalf("decodeEdit = %v, %v; want nil and ErrCorrupt", e, err)
			}
			return
		}
		for _, a := range e.added {
			if a.level < 0 || a.level >= 7 {
				t.Fatalf("added file at level %d", a.level)
			}
		}
		for _, d := range e.deleted {
			if d.level < 0 || d.level >= 7 {
				t.Fatalf("deleted file at level %d", d.level)
			}
		}
		if again, err := decodeEdit(e.encode(), 7); err != nil || !reflect.DeepEqual(again, e) {
			t.Fatalf("re-encoded edit decodes to %+v, %v; want %+v", again, err, e)
		}
	})
}
