package block

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"cachekv/internal/util"
)

// byteBacking is the strictest possible Backing: it faults exactly the bytes
// asked for, and everything else in buf is the complement of the source, so a
// decoder that reads a byte it did not ask for decodes something different
// from the resident iterator and the comparison fails.
type byteBacking struct {
	src, buf []byte
	asked    int // bytes faulted, counting repeats
	fail     error
}

func newByteBacking(src []byte) *byteBacking {
	buf := make([]byte, len(src))
	for i, b := range src {
		buf[i] = ^b
	}
	return &byteBacking{src: src, buf: buf}
}

func (b *byteBacking) Need(lo, hi int) error {
	if b.fail != nil {
		return b.fail
	}
	b.asked += copy(b.buf[lo:hi], b.src[lo:hi])
	return nil
}

// agree drives a resident iterator and, over poisoned buffers, a point-faulted
// and a walk-faulted one through the same calls on the same contents, read at
// skew, and fails on the first observable difference.
func agree(t *testing.T, contents, target []byte, skew int) {
	t.Helper()
	names := []string{"resident", "point", "walk"}
	its := []*Iter{new(Iter), new(Iter), new(Iter)}
	errs := []error{its[0].Reset(contents, skew), nil, nil}
	for i, policy := range []Fault{FaultPoint, FaultWalk} {
		back := newByteBacking(contents)
		errs[i+1] = its[i+1].ResetLazy(back.buf, skew, back, policy)
	}
	for i := 1; i < len(its); i++ {
		if (errs[0] == nil) != (errs[i] == nil) {
			t.Fatalf("reset: resident err %v, %s err %v", errs[0], names[i], errs[i])
		}
	}
	if errs[0] != nil {
		if !errors.Is(errs[0], util.ErrCorrupt) {
			t.Fatalf("reset error %v is not ErrCorrupt", errs[0])
		}
		return
	}
	res := its[0]
	same := func(step string) bool {
		t.Helper()
		for i, it := range its[1:] {
			if res.Valid() != it.Valid() || (res.Err() == nil) != (it.Err() == nil) {
				t.Fatalf("%s: resident valid=%v err=%v, %s valid=%v err=%v",
					step, res.Valid(), res.Err(), names[i+1], it.Valid(), it.Err())
			}
			if res.Valid() && (!bytes.Equal(res.Key(), it.Key()) || !bytes.Equal(res.Value(), it.Value())) {
				t.Fatalf("%s: resident %q=%q, %s %q=%q", step, res.Key(), res.Value(), names[i+1], it.Key(), it.Value())
			}
		}
		if err := res.Err(); err != nil && !errors.Is(err, util.ErrCorrupt) {
			t.Fatalf("%s: error %v is not ErrCorrupt", step, err)
		}
		return res.Valid()
	}
	each := func(f func(*Iter)) {
		for _, it := range its {
			f(it)
		}
	}
	each(func(it *Iter) { it.Seek(target, nil) })
	for n := 0; same(fmt.Sprintf("seek+%d", n)) && n <= len(contents); n++ {
		each((*Iter).Next)
	}
	each((*Iter).SeekToFirst)
	for n := 0; same(fmt.Sprintf("first+%d", n)) && n <= len(contents); n++ {
		each((*Iter).Next)
	}
}

// sampleBlock is a block of n entries with values of valueLen bytes, built to
// lie skew bytes into a cache line.
func sampleBlock(n, valueLen, skew int) ([]byte, [][]byte) {
	b := NewBuilder()
	b.SetSkew(skew)
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i*7))
		b.Add(keys[i], bytes.Repeat([]byte{byte('a' + i%26)}, valueLen))
	}
	return b.Finish(), keys
}

func TestLazyAgreesWithResident(t *testing.T) {
	for _, skew := range []int{0, 17, 63} {
		for _, valueLen := range []int{0, 1, 64, 700} {
			contents, keys := sampleBlock(100, valueLen, skew)
			for _, k := range keys {
				agree(t, contents, k, skew)
				agree(t, contents, append(append([]byte(nil), k...), 0), skew) // between two keys
			}
			agree(t, contents, nil, skew)
			agree(t, contents, []byte("zzzz"), skew)
		}
	}
	agree(t, NewBuilder().Finish(), []byte("k"), 0) // the empty block
}

// lineBacking faults whole 64 B cache lines of a block that starts skew bytes
// into one, as the sstable window does, and notes each line it faults, in
// order, with the Need range that first asked for it.
type lineBacking struct {
	src, buf []byte
	skew     int
	have     map[int]bool
	faults   []lineFault
}

type lineFault struct{ line, lo, hi int }

func newLineBacking(src []byte, skew int) *lineBacking {
	return &lineBacking{src: src, buf: newByteBacking(src).buf, skew: skew, have: map[int]bool{}}
}

func (b *lineBacking) Need(lo, hi int) error {
	for line := (lo + b.skew) / 64; line <= (hi-1+b.skew)/64; line++ {
		if b.have[line] {
			continue
		}
		b.have[line] = true
		b.faults = append(b.faults, lineFault{line, lo, hi})
		a, z := max(line*64-b.skew, 0), min((line+1)*64-b.skew, len(b.src))
		copy(b.buf[a:z], b.src[a:z])
	}
	return nil
}

// runGeom is where one run of a well-formed block lies: its header at off, its
// key area [klo, khi), its pad [khi, vlo) and its value area [vlo, end).
type runGeom struct{ off, klo, khi, vlo, end int }

func geometry(t *testing.T, contents []byte, skew int) (runs []runGeom, limit int) {
	t.Helper()
	it := new(Iter)
	if err := it.Reset(contents, skew); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < it.nRestarts; i++ {
		if !it.openRun(i, FaultPoint) {
			t.Fatal(it.Err())
		}
		end := it.limit
		if i+1 < it.nRestarts {
			end = it.restart(i + 1)
		}
		runs = append(runs, runGeom{it.restart(i), it.kpos, it.kend, it.vpos, end})
	}
	return runs, it.limit
}

// benchBlock is one data block of the benchmark's shape, closed as the table
// writer closes it, to lie skew bytes into a cache line: 16 hex digits of a
// hash and an 8 B trailer for a key, a 64 B value, 4 KiB of entries.
func benchBlock(skew int) ([]byte, [][]byte) {
	var keys [][]byte
	for i := uint64(0); i < 64; i++ {
		keys = append(keys, []byte(fmt.Sprintf("00000%011x\x01\x00\x00\x00\x00\x00\x00\x00", i*0x9E3779B97F4A7C15>>20)))
	}
	sort.Slice(keys, func(i, j int) bool { return bytes.Compare(keys[i], keys[j]) < 0 })
	b := NewBuilder()
	b.SetSkew(skew)
	for i, k := range keys {
		b.Add(k, bytes.Repeat([]byte{byte(i)}, 64))
		if b.EstimatedSize() >= 4096 {
			return b.Finish(), keys[:i+1]
		}
	}
	panic("64 entries did not fill 4 KiB")
}

// seekTarget sorts just before key and after every smaller key of benchBlock,
// as a Get's internal key sorts just before the version it finds.
func seekTarget(key []byte) []byte { return key[:len(key)-8] }

// A cold point Seek must fault the trailer, the first key of at most two runs
// it does not land in, the key area of the one it does — as far as the search
// walks it — and the value it returns: no other value, no other key area.
// With keys apart from values, and each run's 64 B values starting on a line —
// so that the run after it, and the trailer, start on one too — that is under
// 7 of the 67.4 lines the block spans on average (LevelDB's entry-after-entry
// layout: about 15.7; values wherever the key area ends: 8.73).
func TestLazySeekTouchesOneRun(t *testing.T) {
	var phase [4]int // lines first faulted for the trailer, foreign restart keys, the landing run, the value
	seeks, lines, entries := 0, 0, -1
	for skew := 0; skew < LineSize; skew++ { // blocks lie anywhere in a table
		contents, keys := benchBlock(skew)
		if entries < 0 {
			entries = len(keys)
		} else if len(keys) != entries {
			t.Fatalf("skew %d: the block closed on %d entries, at skew 0 on %d: the pad counted toward its size", skew, len(keys), entries)
		}
		lines += (skew + len(contents) + LineSize - 1) / LineSize
		runs, limit := geometry(t, contents, skew)
		for i, k := range keys {
			back := newLineBacking(contents, skew)
			it := new(Iter)
			if err := it.ResetLazy(back.buf, skew, back, FaultPoint); err != nil {
				t.Fatal(err)
			}
			it.Seek(seekTarget(k), nil)
			if !it.Valid() || !bytes.Equal(it.Key(), k) || !bytes.Equal(it.Value(), bytes.Repeat([]byte{byte(i)}, 64)) {
				t.Fatalf("seek %q -> %q", k, it.Key())
			}
			seeks++
			// The seek lands in the run that holds the greatest key below its
			// target: the first key of a run is reached by walking the run before.
			home := runs[max(i-1, 0)/restartInterval]
			foreign := map[int]bool{}
			for _, f := range back.faults {
				switch {
				case f.lo >= limit:
					phase[0]++
				case f.lo >= home.off && f.lo < home.khi:
					phase[2]++
				case f.lo == it.vlo:
					phase[3]++
				default:
					// Anything else may only be the head of another run's key area.
					r := runs[sort.Search(len(runs), func(j int) bool { return runs[j].end > f.lo })]
					if f.lo >= r.off+1+maxRecordHeader+len(k) {
						t.Fatalf("seek %q (run at %d) asked for byte %d of the run at %d (key area to %d)", k, home.off, f.lo, r.off, r.khi)
					}
					foreign[r.off] = true
					phase[1]++
				}
			}
			if len(foreign) > 2 {
				t.Fatalf("seek %q probed %d runs besides its own", k, len(foreign))
			}
		}
	}
	n := float64(seeks)
	total := phase[0] + phase[1] + phase[2] + phase[3]
	t.Logf("%d-entry block of %.2f lines, lines faulted per cold seek: trailer %.2f, foreign restart keys %.2f, landing run %.2f, value %.2f = %.2f",
		entries, float64(lines)/LineSize, float64(phase[0])/n, float64(phase[1])/n, float64(phase[2])/n, float64(phase[3])/n, float64(total)/n)
	if phase[3] != seeks {
		t.Fatalf("%d cold seeks faulted %d value lines, want one each", seeks, phase[3])
	}
	if total > 7*seeks {
		t.Fatalf("%d cold seeks faulted %d lines, want at most 7 of the block's %.2f each on average", seeks, total, float64(lines)/LineSize)
	}
}

// Wherever a block of the benchmark's shape lies, each of its 64 B values is
// one cache line: a Get that returns it reads that line and no other.
func TestBenchValuesLieInOneLine(t *testing.T) {
	for skew := 0; skew < LineSize; skew++ {
		contents, keys := benchBlock(skew)
		it := new(Iter)
		if err := it.Reset(contents, skew); err != nil {
			t.Fatal(err)
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			if first, last := (skew+it.vlo)/LineSize, (skew+it.vhi-1)/LineSize; first != last {
				t.Fatalf("skew %d: value %d spans lines %d to %d", skew, n, first, last)
			}
			n++
		}
		if n != len(keys) || it.Err() != nil {
			t.Fatalf("skew %d: walked %d values of %d, err %v", skew, n, len(keys), it.Err())
		}
	}
}

// A run is padded only when its values then touch fewer lines, each counted
// on its own: 16 B and 48 B values sit in one line or straddle two depending
// on where the run's key area ends, so at most skews a pad pays and at some
// (a key area ending 16, 32 or 48 bytes into a line) it does not.
func TestBuilderPadsOnlyWhenItSavesLines(t *testing.T) {
	for _, vlen := range []int{16, 48} {
		padded, plain := 0, 0
		for skew := 0; skew < LineSize; skew++ {
			contents, _ := sampleBlock(64, vlen, skew)
			runs, _ := geometry(t, contents, skew)
			for _, r := range runs {
				// The lines the run's values touch if its value area starts at v.
				cost := func(v int) (n int) {
					for at := r.vlo; at < r.end; at += vlen {
						n += (skew+v+vlen-1)/LineSize - (skew+v)/LineSize + 1
						v += vlen
					}
					return n
				}
				line := r.khi + (LineSize-(skew+r.khi)%LineSize)%LineSize
				switch r.vlo {
				case r.khi:
					if line != r.khi {
						plain++ // a pad was possible
					}
					if cost(line) < cost(r.khi) {
						t.Errorf("%d B values, skew %d: the run at %d is not padded, though its values would touch %d lines from %d instead of %d", vlen, skew, r.off, cost(line), line, cost(r.khi))
					}
				case line:
					padded++
					if cost(line) >= cost(r.khi) {
						t.Errorf("%d B values, skew %d: the run at %d is padded, though its values touch %d lines and %d without", vlen, skew, r.off, cost(line), cost(r.khi))
					}
					if !bytes.Equal(contents[r.khi:r.vlo], make([]byte, r.vlo-r.khi)) {
						t.Errorf("%d B values, skew %d: the pad of the run at %d is not zeros", vlen, skew, r.off)
					}
				default:
					t.Fatalf("%d B values, skew %d: the run at %d starts its values at %d, neither behind its key area (%d) nor on the next line (%d)", vlen, skew, r.off, r.vlo, r.khi, line)
				}
			}
		}
		t.Logf("%d B values: %d runs padded, %d not padded off a line", vlen, padded, plain)
		if padded == 0 || plain == 0 {
			t.Fatalf("%d B values: %d runs padded and %d not padded off a line; the test wants both", vlen, padded, plain)
		}
	}
}

// A walk faults a run's whole key area on entering it, so that after the
// seek's probes its line fetches only ever move forward: key area, the values
// it reads, the next key area. (Fetching key lines as the records are reached
// instead alternates between a run's key lines and its value lines, which the
// DIMM does not serve as a sequential read.)
func TestLazyWalkFaultsInAddressOrder(t *testing.T) {
	for _, skew := range []int{0, 40} {
		contents, keys := benchBlock(skew)
		runs, _ := geometry(t, contents, skew)
		for start := range keys {
			back := newLineBacking(contents, skew)
			it := new(Iter)
			if err := it.ResetLazy(back.buf, skew, back, FaultWalk); err != nil {
				t.Fatal(err)
			}
			it.Seek(seekTarget(keys[start]), nil)
			for n := 0; n < 50 && it.Valid(); n++ {
				if !bytes.Equal(it.Key(), keys[start+n]) || !bytes.Equal(it.Value(), bytes.Repeat([]byte{byte(start + n)}, 64)) {
					t.Fatalf("seek %d + %d: %q", start, n, it.Key())
				}
				it.Next()
			}
			if it.Err() != nil {
				t.Fatal(it.Err())
			}
			// The walk proper starts where the landing run's key area is asked
			// for whole; lines that a probe had already faulted do not repeat.
			home := runs[max(start-1, 0)/restartInterval] // see TestLazySeekTouchesOneRun
			landed, last := false, -1
			for _, f := range back.faults {
				if !landed && f.lo == home.klo && f.hi == home.khi {
					landed = true
				}
				if !landed {
					continue
				}
				if f.line <= last {
					t.Fatalf("skew %d seek %d: line %d faulted after line %d: %v", skew, start, f.line, last, back.faults)
				}
				last = f.line
			}
			if !landed {
				t.Fatalf("skew %d seek %d: the landing run's key area was never asked for whole: %v", skew, start, back.faults)
			}
		}
	}
}

func TestLazyBackingErrorSurfaces(t *testing.T) {
	contents, keys := sampleBlock(40, 8, 0)
	boom := errors.New("media fault")
	for _, policy := range []Fault{FaultPoint, FaultWalk} {
		back := newByteBacking(contents)
		it := new(Iter)
		if err := it.ResetLazy(back.buf, 0, back, policy); err != nil {
			t.Fatal(err)
		}
		back.fail = boom
		it.Seek(keys[20], nil)
		if it.Valid() || !errors.Is(it.Err(), boom) {
			t.Fatalf("valid=%v err=%v, want the backing's error", it.Valid(), it.Err())
		}
		back = newByteBacking(contents)
		back.fail = boom
		if err := new(Iter).ResetLazy(back.buf, 0, back, policy); !errors.Is(err, boom) {
			t.Fatalf("reset err=%v, want the backing's error", err)
		}
	}
}

// rawBlock assembles a block from runs given as raw bytes, right or wrong:
// the restart array records where each begins.
func rawBlock(runs ...[]byte) []byte {
	var b, trailer []byte
	for _, r := range runs {
		trailer = util.PutFixed32(trailer, uint32(len(b)))
		b = append(b, r...)
	}
	return util.PutFixed32(append(b, trailer...), uint32(len(runs)))
}

// rawRun is one run: a header claiming klen key-area bytes and no pad, then
// the key records and the values as given.
func rawRun(klen int, records [][]byte, vals string) []byte {
	r := util.PutUvarint(nil, uint64(klen)<<1)
	for _, rec := range records {
		r = append(r, rec...)
	}
	return append(r, vals...)
}

func rawRecord(shared, vlen int, suffix string) []byte {
	return append([]byte{byte(shared), byte(len(suffix)), byte(vlen)}, suffix...)
}

// hostileRuns are blocks of two runs — keys a1 a2 a3, b1 b2 b3, values of two
// bytes — whose first run is sound and whose run structure is wrong in one
// field each, read at skew 0. The committed fuzz seeds of the same names hold
// the same bytes.
func hostileRuns() (good []byte, bad map[string][]byte) {
	recs := func(c string, shared int) [][]byte {
		return [][]byte{rawRecord(shared, 2, c[:1-shared]+"1"), rawRecord(1, 2, "2"), rawRecord(1, 2, "3")}
	}
	a, b := recs("a", 0), recs("b", 0)
	const klen = 5 + 4 + 4 // the three records of a run
	first := rawRun(klen, a, "A1A2A3")
	good = rawBlock(first, rawRun(klen, b, "B1B2B3"))
	long := append([]byte{0x80 | klen<<1, 0x80, 0x80, 0x80, 0x80, 0x00}, rawRun(klen, b, "B1B2B3")[1:]...) // the header in six bytes
	aligned := rawRun(klen, b, "B1B2B3")
	aligned[0] |= 1 // its key area ends at byte 34, the next line starts at 64, the entry area ends at 40
	return good, map[string][]byte{
		"key-area-length-zero":         rawBlock(first, rawRun(0, b, "B1B2B3")),
		"key-area-past-restart-array":  rawBlock(first, rawRun(klen+6+1, b, "B1B2B3")),
		"record-straddles-key-area":    rawBlock(first, rawRun(klen-1, b, "B1B2B3")),
		"values-past-entry-area":       rawBlock(first, rawRun(klen, [][]byte{b[0], b[1], rawRecord(1, 3, "3")}, "B1B2B3")),
		"values-short-of-next-restart": rawBlock(rawRun(klen, a, "A1A2A3??"), rawRun(klen, b, "B1B2B3")),
		"run-header-six-byte-varint":   rawBlock(first, long),
		"value-area-past-entry-area":   rawBlock(first, aligned),
		"restart-shared-prefix":        rawBlock(first, rawRun(klen-1, recs("b", 1), "B1B2B3")),
	}
}

// Every count, offset and length in a block is media-derived; each of these
// would slice out of range, or misplace every later value, if believed.
func TestHostileBlocks(t *testing.T) {
	good, keys := sampleBlock(40, 8, 0)
	trailer := func(mut func(b []byte, restarts int)) []byte {
		b := append([]byte(nil), good...)
		mut(b, len(b)-4-4*3)
		return b
	}
	put32 := func(b []byte, off int, v uint32) { copy(b[off:], util.PutFixed32(nil, v)) }
	cases := map[string][]byte{
		"restart offset past the entry area": trailer(func(b []byte, r int) { put32(b, r+4, uint32(len(b)+100)) }),
		"restart offset inside the trailer":  trailer(func(b []byte, r int) { put32(b, r+8, uint32(r+2)) }),
		"restart offsets descending":         trailer(func(b []byte, r int) { put32(b, r+4, 0) }),
		"restart count zero":                 trailer(func(b []byte, r int) { put32(b, len(b)-4, 0) }),
		"restart count huge":                 trailer(func(b []byte, r int) { put32(b, len(b)-4, 1<<31) }),
		"restart count larger than block":    trailer(func(b []byte, r int) { put32(b, len(b)-4, uint32(len(b))) }),
	}
	for name, b := range cases {
		if _, err := NewIter(b); !errors.Is(err, util.ErrCorrupt) {
			t.Errorf("%s: NewIter err = %v, want ErrCorrupt", name, err)
		}
		agree(t, b, keys[5], 0)
	}
	// Damage inside the entry area passes reset and must fail (or answer)
	// cleanly during the walk, identically for every backing.
	for off := 0; off < len(good)-16; off += 3 {
		for _, v := range []byte{0xff, 0x80, 0x00} {
			b := append([]byte(nil), good...)
			b[off] = v
			agree(t, b, keys[off%len(keys)], 0)
		}
	}
	// A run whose structure is wrong ends the walk with ErrCorrupt after the
	// sound run before it, and a Seek into it fails or finds the right value.
	sound, runs := hostileRuns()
	agree(t, sound, []byte("b2"), 0)
	it, err := NewIter(sound)
	if err != nil {
		t.Fatal(err)
	}
	if it.Seek([]byte("b2"), nil); !it.Valid() || string(it.Value()) != "B2" {
		t.Fatalf("the sound two-run block does not read: valid=%v err=%v", it.Valid(), it.Err())
	}
	for name, b := range runs {
		if seed, err := os.ReadFile("testdata/fuzz/FuzzBlockSeek/" + name); err != nil || !bytes.Contains(seed, []byte(fmt.Sprintf("[]byte(%q)\n", b))) {
			t.Errorf("%s: the committed fuzz seed of that name does not hold this block (%v)", name, err)
		}
		for _, target := range []string{"", "a2", "b1", "b2", "b3", "c"} {
			agree(t, b, []byte(target), 0)
		}
		if it, err = NewIter(b); err != nil {
			t.Fatalf("%s: reset: %v", name, err)
		}
		var got []string
		for it.SeekToFirst(); it.Valid(); it.Next() {
			got = append(got, string(it.Key())+"="+string(it.Value()))
		}
		if want := "a1=A1 a2=A2 a3=A3"; !strings.HasPrefix(strings.Join(got, " "), want) || len(got) >= 6 || !errors.Is(it.Err(), util.ErrCorrupt) {
			t.Errorf("%s: walked %v then err %v, want %s, at most two more and ErrCorrupt", name, got, it.Err(), want)
		}
		it, _ = NewIter(b)
		if it.Seek([]byte("b3"), nil); it.Valid() && string(it.Value()) != "B3" {
			t.Errorf("%s: Seek(b3) = %q=%q", name, it.Key(), it.Value())
		}
	}
}

// FuzzBlockSeek: on arbitrary bytes, read at any skew, the resident, the
// point-faulted and the walk-faulted backing decode the same thing, and none
// panics, spins or reads out of range.
func FuzzBlockSeek(f *testing.F) {
	good, keys := sampleBlock(40, 8, 0)
	f.Add(good, keys[17], uint8(0))
	f.Add(good[:len(good)-3], keys[0], uint8(0))
	skewed, keys := sampleBlock(50, 64, 40)
	f.Add(skewed, keys[33], uint8(40))
	f.Add(NewBuilder().Finish(), []byte("k"), uint8(0))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, []byte{}, uint8(0))
	f.Fuzz(func(t *testing.T, contents, target []byte, skew uint8) {
		if len(contents) > 1<<16 {
			return
		}
		agree(t, contents, target, int(skew%LineSize))
	})
}
