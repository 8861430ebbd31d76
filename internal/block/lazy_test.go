package block

import (
	"bytes"
	"errors"
	"fmt"
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

// agree drives a resident and a lazy iterator over the same contents through
// the same calls and fails on the first observable difference.
func agree(t *testing.T, contents, target []byte) {
	t.Helper()
	res := new(Iter)
	resErr := res.Reset(contents)
	back := newByteBacking(contents)
	lazy := new(Iter)
	lazyErr := lazy.ResetLazy(back.buf, back)
	if (resErr == nil) != (lazyErr == nil) {
		t.Fatalf("reset: resident err %v, lazy err %v", resErr, lazyErr)
	}
	if resErr != nil {
		if !errors.Is(resErr, util.ErrCorrupt) {
			t.Fatalf("reset error %v is not ErrCorrupt", resErr)
		}
		return
	}
	same := func(step string) bool {
		t.Helper()
		if res.Valid() != lazy.Valid() || (res.Err() == nil) != (lazy.Err() == nil) {
			t.Fatalf("%s: resident valid=%v err=%v, lazy valid=%v err=%v",
				step, res.Valid(), res.Err(), lazy.Valid(), lazy.Err())
		}
		if !res.Valid() {
			return false
		}
		if !bytes.Equal(res.Key(), lazy.Key()) || !bytes.Equal(res.Value(), lazy.Value()) {
			t.Fatalf("%s: resident %q=%q, lazy %q=%q", step, res.Key(), res.Value(), lazy.Key(), lazy.Value())
		}
		return true
	}
	res.Seek(target, nil)
	lazy.Seek(target, nil)
	for n := 0; same(fmt.Sprintf("seek+%d", n)) && n <= len(contents); n++ {
		res.Next()
		lazy.Next()
	}
	res.SeekToFirst()
	lazy.SeekToFirst()
	for n := 0; same(fmt.Sprintf("first+%d", n)) && n <= len(contents); n++ {
		res.Next()
		lazy.Next()
	}
}

func sampleBlock(n, valueLen int) ([]byte, [][]byte) {
	b := NewBuilder()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%08d", i*7))
		b.Add(keys[i], bytes.Repeat([]byte{byte('a' + i%26)}, valueLen))
	}
	return b.Finish(), keys
}

func TestLazyAgreesWithResident(t *testing.T) {
	for _, valueLen := range []int{0, 1, 64, 700} {
		contents, keys := sampleBlock(100, valueLen)
		for _, k := range keys {
			agree(t, contents, k)
			agree(t, contents, append(append([]byte(nil), k...), 0)) // between two keys
		}
		agree(t, contents, nil)
		agree(t, contents, []byte("zzzz"))
	}
	agree(t, NewBuilder().Finish(), []byte("k")) // the empty block
}

// A Seek over a lazy backing must ask for far less than the block: the
// trailer, a few restart keys and one restart run.
func TestLazySeekTouchesOneRun(t *testing.T) {
	contents, keys := sampleBlock(480, 64) // 30 restart runs, 40 KiB
	for _, k := range [][]byte{keys[0], keys[123], keys[479]} {
		back := newByteBacking(contents)
		it := new(Iter)
		if err := it.ResetLazy(back.buf, back); err != nil {
			t.Fatal(err)
		}
		it.Seek(k, nil)
		if !it.Valid() || !bytes.Equal(it.Key(), k) {
			t.Fatalf("seek %q -> %q", k, it.Key())
		}
		it.Value()
		if limit := len(contents) / 10; back.asked > limit {
			t.Fatalf("seek %q faulted %d of %d bytes, want at most %d", k, back.asked, len(contents), limit)
		}
	}
}

func TestLazyBackingErrorSurfaces(t *testing.T) {
	contents, keys := sampleBlock(40, 8)
	boom := errors.New("media fault")
	back := newByteBacking(contents)
	it := new(Iter)
	if err := it.ResetLazy(back.buf, back); err != nil {
		t.Fatal(err)
	}
	back.fail = boom
	it.Seek(keys[20], nil)
	if it.Valid() || !errors.Is(it.Err(), boom) {
		t.Fatalf("valid=%v err=%v, want the backing's error", it.Valid(), it.Err())
	}
	back = newByteBacking(contents)
	back.fail = boom
	if err := new(Iter).ResetLazy(back.buf, back); !errors.Is(err, boom) {
		t.Fatalf("reset err=%v, want the backing's error", err)
	}
}

// Every count, offset and length in a block is media-derived; each of these
// used to slice out of range.
func TestHostileBlocks(t *testing.T) {
	good, keys := sampleBlock(40, 8)
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
		agree(t, b, keys[5])
	}
	// Damage inside the entry area passes reset and must fail (or answer)
	// cleanly during the walk, identically for both backings.
	for off := 0; off < len(good)-16; off += 3 {
		for _, v := range []byte{0xff, 0x80, 0x00} {
			b := append([]byte(nil), good...)
			b[off] = v
			agree(t, b, keys[off%len(keys)])
		}
	}
	// A restart that points at an entry with a shared prefix is corrupt.
	b := append([]byte(nil), good...)
	it, err := NewIter(b)
	if err != nil {
		t.Fatal(err)
	}
	it.SeekToFirst()
	it.Next()
	inRun := it.nextOff // an entry inside a run shares a prefix with its predecessor
	put32(b, len(b)-4-4*3+4, uint32(inRun))
	it, err = NewIter(b)
	if err != nil {
		t.Fatal(err)
	}
	it.Seek(keys[39], nil)
	if it.Valid() || !errors.Is(it.Err(), util.ErrCorrupt) {
		t.Fatalf("restart with shared prefix: valid=%v err=%v", it.Valid(), it.Err())
	}
}

// FuzzBlockSeek: on arbitrary bytes the resident and the lazy backing decode
// the same thing, and neither panics, spins or reads out of range.
func FuzzBlockSeek(f *testing.F) {
	good, keys := sampleBlock(40, 8)
	f.Add(good, keys[17])
	f.Add(good[:len(good)-3], keys[0])
	f.Add(NewBuilder().Finish(), []byte("k"))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, []byte{})
	f.Fuzz(func(t *testing.T, contents, target []byte) {
		if len(contents) > 1<<16 {
			return
		}
		agree(t, contents, target)
	})
}
