package sstable

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"cachekv/internal/block"
	"cachekv/internal/blockcache"
	"cachekv/internal/bloom"
	"cachekv/internal/hw"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

// sameRows drives a whole-block (resident) and an in-place (lazy) iterator
// through the same calls and fails on the first observable difference. It
// returns how many rows the two agreed on.
func sameRows(t *testing.T, what string, res, lazy *Iter, max int) int {
	t.Helper()
	n := 0
	for ; n < max; n++ {
		if res.Valid() != lazy.Valid() {
			t.Fatalf("%s+%d: resident valid=%v err=%v, lazy valid=%v err=%v", what, n, res.Valid(), res.Err(), lazy.Valid(), lazy.Err())
		}
		if !res.Valid() {
			break
		}
		if !bytes.Equal(res.Key(), lazy.Key()) || !bytes.Equal(res.Value(), lazy.Value()) {
			t.Fatalf("%s+%d: resident %q=%q, lazy %q=%q", what, n, res.Key(), res.Value(), lazy.Key(), lazy.Value())
		}
		res.Next()
		lazy.Next()
	}
	if (res.Err() == nil) != (lazy.Err() == nil) {
		t.Fatalf("%s: resident err %v, lazy err %v", what, res.Err(), lazy.Err())
	}
	return n
}

// A scan iterator walks blocks in place; a compaction iterator copies them
// whole. Over a table with prefix-heavy keys, several versions per key, range
// tombstones and values large enough that some blocks outgrow the window (and
// are copied after all), a whole-table walk and random Seek+Next runs must
// agree byte for byte.
func TestScanIterMatchesWholeBlockIter(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		_, fs, th := newMachineEnv(t)
		skewFreeList(t, fs, th, 1_000_003+uint64(seed)*37)
		es := randomEntries(rng, 1200)
		_, r := openTable(t, fs, th, "t", es)
		c := blockcache.New(1, 1) // holds nothing: every block load is a miss
		r.SetCache(c, 1)
		res, err := r.NewCompactionIter(th)
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := r.NewIter(th)
		if err != nil {
			t.Fatal(err)
		}
		res.SeekToFirst()
		lazy.SeekToFirst()
		if n := sameRows(t, "walk", res, lazy, len(es)+1); n != len(es) {
			t.Fatalf("seed %d: walked %d rows, the table has %d", seed, n, len(es))
		}
		for i := 0; i < 400; i++ {
			e := es[rng.Intn(len(es))]
			key := e.key
			switch rng.Intn(4) {
			case 0:
				key += "\x00" // between two keys
			case 1:
				key = key[:len(key)-1]
			}
			seq := e.seq
			if rng.Intn(2) == 0 {
				seq = util.MaxSequence
			}
			target := util.MakeInternalKey(nil, []byte(key), seq, util.KindValue)
			// Now and then the same block twice in a row: the second touch
			// is admitted, so the in-place iterator reads a whole copy too.
			for reps := 1 + (i&7)/7; reps > 0; reps-- {
				res.Seek(target)
				lazy.Seek(target)
				sameRows(t, fmt.Sprintf("seed %d seek %q@%d", seed, key, seq), res, lazy, 1+rng.Intn(60))
			}
		}
		res.Close()
		lazy.Close()
		// In-place walks, second-touch fills and oversized copies all ran.
		if st := c.Stats(); st.Direct == 0 || st.Admitted == 0 || 2*(st.Direct+st.Admitted) >= st.Misses {
			t.Fatalf("seed %d: want in-place, admitted and oversized block loads all exercised, got %+v", seed, st)
		}
	}
}

// rawTable writes a table of the given data blocks, block i indexed under
// lastKeys[i], and opens it. Each block is made for the skew it will lie at
// (goodBlock), or ignores it (verbatim).
func rawTable(t testing.TB, fs *pmemfs.FS, th *hw.Thread, name string, blocks []func(skew int) []byte, lastKeys [][]byte) *Reader {
	t.Helper()
	fw, err := fs.Create(th, name, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	put := func(b []byte) handle {
		h := handle{fw.Offset(), uint64(len(b))}
		if err := fw.Append(th, b); err != nil {
			t.Fatal(err)
		}
		return h
	}
	index := block.NewBuilder()
	for i, b := range blocks {
		index.Add(lastKeys[i], put(b(skewAt(fw.Addr()))).encode(nil))
	}
	filterH := put(bloom.New(10).BuildHashes(nil))
	indexH := put(index.Finish())
	put(footerOf(filterH, indexH, tableMagic))
	if err := fw.Finish(th); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(f, th)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// verbatim is a rawTable block that is b wherever it lies.
func verbatim(b []byte) func(int) []byte { return func(int) []byte { return b } }

// goodBlock is a well-formed data block of n entries under user keys
// prefix000, prefix001, …, built to lie skew bytes into a cache line.
func goodBlock(prefix string, n int) func(skew int) []byte {
	return func(skew int) []byte {
		b := block.NewBuilder()
		b.SetSkew(skew)
		for i := 0; i < n; i++ {
			b.Add(util.MakeInternalKey(nil, []byte(fmt.Sprintf("%s%03d", prefix, i)), uint64(i+1), util.KindValue), bytes.Repeat([]byte{byte('a' + i%26)}, 40))
		}
		return b.Finish()
	}
}

func ikey(user string) []byte { return util.MakeInternalKey(nil, []byte(user), 0, util.KindValue) }

// A table iterator that meets a block it cannot decode must end with
// ErrCorrupt, not look exhausted — whether the block is walked in place,
// copied whole, or served from the cache the copy filled.
func TestIterReportsCorruptBlock(t *testing.T) {
	bad := goodBlock("k", 40)(0)
	bad[len(bad)-1] ^= 0x80 // restart count: absurd
	loads := map[string]func(r *Reader, th *hw.Thread) (*Iter, error){
		"in place":    (*Reader).NewIter,
		"whole block": (*Reader).NewCompactionIter,
		"cached": func(r *Reader, th *hw.Thread) (*Iter, error) {
			// Two walks: the second touch of each block the first reached
			// fills the cache with the block as it is on media.
			for range 2 {
				it, err := r.NewIter(th)
				if err != nil {
					return nil, err
				}
				for it.SeekToFirst(); it.Valid(); it.Next() {
				}
				it.Close()
			}
			return r.NewIter(th)
		},
	}
	for name, open := range loads {
		_, fs, th := newMachineEnv(t)
		r := rawTable(t, fs, th, "t", []func(int) []byte{goodBlock("a", 40), verbatim(bad), goodBlock("z", 40)}, [][]byte{ikey("b"), ikey("l"), ikey("zz")})
		c := blockcache.New(1<<20, 1)
		r.SetCache(c, 1)
		it, err := open(r, th)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for it.SeekToFirst(); it.Valid(); it.Next() {
			n++
		}
		if n != 40 || !errors.Is(it.Err(), util.ErrCorrupt) {
			t.Errorf("%s: walked %d rows then Err() = %v; want the first block's 40, then ErrCorrupt", name, n, it.Err())
		}
		if name == "cached" && c.Stats().Hits == 0 {
			t.Errorf("cached: the walk never hit the cache: %+v", c.Stats())
		}
		it.Close()
		if !errors.Is(it.Err(), util.ErrCorrupt) {
			t.Errorf("%s: Err() after Close = %v", name, it.Err())
		}
		// A Seek straight into the bad block fails the same way.
		if it, err = open(r, th); err != nil {
			t.Fatal(err)
		}
		it.Seek(ikey("k010"))
		if it.Valid() || !errors.Is(it.Err(), util.ErrCorrupt) {
			t.Errorf("%s: Seek into the bad block: valid=%v err=%v", name, it.Valid(), it.Err())
		}
		it.Close()
	}
}

// FuzzTableIter: a table whose middle data block is arbitrary bytes reads the
// same through the in-place and the whole-block iterator — same rows, an error
// on both or on neither — and neither panics, spins or reads out of range.
func FuzzTableIter(f *testing.F) {
	first, last := goodBlock("a", 40), goodBlock("z", 40)
	middle := len(first(0)) % block.LineSize // where the fuzzed block lies: the file starts on a line
	good := goodBlock("k", 40)(middle)
	f.Add(good, ikey("k017"))
	f.Add(good[:len(good)-3], ikey("a"))
	f.Add(block.NewBuilder().Finish(), ikey("k"))
	f.Add([]byte{0, 0, 0, 0, 1, 0, 0, 0}, []byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 300), []byte("k"))
	var fs *pmemfs.FS
	var th *hw.Thread
	execs := 0
	f.Fuzz(func(t *testing.T, contents, target []byte) {
		if len(contents) == 0 || len(contents) > 1<<16 {
			return
		}
		// A filesystem's directory log only grows: take a new one now and then.
		if execs%1024 == 0 {
			_, fs, th = newMachineEnv(t)
		}
		execs++
		r := rawTable(t, fs, th, "t", []func(int) []byte{first, verbatim(contents), last}, [][]byte{ikey("b"), ikey("l"), ikey("zz")})
		defer fs.Delete(th, "t")
		for _, from := range []string{"seek", "first"} {
			res, err := r.NewCompactionIter(th)
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := r.NewIter(th)
			if err != nil {
				t.Fatal(err)
			}
			if from == "seek" {
				res.Seek(target)
				lazy.Seek(target)
			} else {
				res.SeekToFirst()
				lazy.SeekToFirst()
			}
			sameRows(t, from, res, lazy, len(contents)+100)
			res.Close()
			lazy.Close()
		}
	})
}
