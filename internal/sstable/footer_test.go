package sstable

import (
	"bytes"
	"errors"
	"runtime"
	"testing"

	"cachekv/internal/block"
	"cachekv/internal/bloom"
	"cachekv/internal/hw"
	"cachekv/internal/pmemfs"
	"cachekv/internal/util"
)

// footerOf renders a footer: the two handles, padding, the magic.
func footerOf(filterH, indexH handle, magic uint64) []byte {
	footer := indexH.encode(filterH.encode(nil))
	footer = append(footer, make([]byte, footerLen-8-len(footer))...)
	return util.PutFixed64(footer, magic)
}

// sealedFile writes the parts back to back into a new file and opens it.
func sealedFile(t testing.TB, fs *pmemfs.FS, th *hw.Thread, name string, parts ...[]byte) *pmemfs.File {
	t.Helper()
	fw, err := fs.Create(th, name, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		if err := fw.Append(th, p); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Finish(th); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// The footer has a magic and no CRC, so its handles are whatever the media
// holds. A file that is not a table, and a table whose footer announces a
// filter or an index block that the file cannot hold, fail Open with
// ErrCorrupt — without the announced length having sized anything.
func TestCorruptFooter(t *testing.T) {
	const body = 1000 // bytes ahead of the footer; the file is body+footerLen long
	ok := handle{0, 100}
	hostile := []struct {
		name string
		h    handle
	}{
		{"length 2^62", handle{0, 1 << 62}},
		{"length 2^36", handle{0, 1 << 36}},
		{"length one past EOF", handle{0, body + footerLen + 1}},
		{"offset past EOF", handle{body + footerLen + 1, 0}},
		{"offset+length wraps", handle{^uint64(0) - 7, 16}},
		{"offset 2^63, length 2^63", handle{1 << 63, 1 << 63}},
	}
	type tc struct {
		name string
		file []byte
	}
	cases := []tc{
		{"garbage", bytes.Repeat([]byte{7}, 100)},
		{"shorter than a footer", bytes.Repeat([]byte{7}, footerLen-1)},
		{"empty", nil},
		{"bad magic", append(make([]byte, body), footerOf(ok, ok, tableMagic+1)...)},
		{"handles run into the magic", append(make([]byte, body), util.PutFixed64(bytes.Repeat([]byte{0x80}, footerLen-8), tableMagic)...)},
	}
	for _, h := range hostile {
		cases = append(cases,
			tc{"filter " + h.name, append(make([]byte, body), footerOf(h.h, ok, tableMagic)...)},
			tc{"index " + h.name, append(make([]byte, body), footerOf(ok, h.h, tableMagic)...)})
	}
	fs, th := newEnv(t)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := sealedFile(t, fs, th, c.name, c.file)
			var err error
			if n := allocated(func() { _, err = NewReader(f, th) }); n > 64<<10 {
				t.Errorf("NewReader allocated %d bytes over a %d-byte file", n, len(c.file))
			}
			if !errors.Is(err, util.ErrCorrupt) {
				t.Fatalf("NewReader = %v, want an error wrapping util.ErrCorrupt", err)
			}
		})
	}
	// The same layout with honest handles opens.
	f := sealedFile(t, fs, th, "honest", make([]byte, body), footerOf(ok, handle{100, 0}, tableMagic))
	if _, err := NewReader(f, th); err != nil {
		t.Fatalf("honest footer: %v", err)
	}
}

// footerIndexSeed is a valid FuzzFooterIndex input: the footer and index of a
// table laid out as the fuzz target lays it out.
func footerIndexSeed(data, filter []byte) (footer, index []byte) {
	ib := block.NewBuilder()
	ib.Add(ikey("k999"), handle{0, uint64(len(data))}.encode(nil))
	index = ib.Finish()
	at := uint64(len(data))
	return footerOf(handle{at, uint64(len(filter))}, handle{at + uint64(len(filter)), uint64(len(index))}, tableMagic), index
}

// FuzzFooterIndex opens a table whose footer and index block are arbitrary
// bytes — a good data block ‖ an empty filter ‖ index ‖ footer — raw, and
// again with the magic put right so that the handles are reached. Open fails
// with ErrCorrupt or yields a Reader whose Get and walk may fail but never
// panic or spin; neither allocates in proportion to a field of the input.
func FuzzFooterIndex(f *testing.F) {
	data, filter := goodBlock("k", 40)(0), bloom.New(10).BuildHashes(nil) // the file starts on a line
	footer, index := footerIndexSeed(data, filter)
	f.Add(footer, index, ikey("k017"))
	var fs *pmemfs.FS
	var th *hw.Thread
	execs := 0
	f.Fuzz(func(t *testing.T, footer, index, target []byte) {
		if len(index) > 1<<14 || len(target) > 1<<10 {
			return
		}
		if execs%256 == 0 { // a filesystem's directory log only grows
			_, fs, th = newMachineEnv(t)
		}
		execs++
		footer = append(footer, make([]byte, footerLen)...)[:footerLen]
		fixed := util.PutFixed64(append([]byte(nil), footer[:footerLen-8]...), tableMagic)
		for i, foot := range [][]byte{footer, fixed} {
			name := string(rune('a' + i))
			file := sealedFile(t, fs, th, name, data, filter, index, foot)
			defer fs.Delete(th, name)
			budget := 256<<10 + 16*file.Size()
			if n := allocated(func() { openAndRead(t, file, th, target) }); n > budget {
				t.Fatalf("%d bytes allocated over a %d-byte table (budget %d)", n, file.Size(), budget)
			}
		}
	})
}

// openAndRead is FuzzFooterIndex's use of one table: Open, a Get, a bounded walk.
func openAndRead(t *testing.T, file *pmemfs.File, th *hw.Thread, target []byte) {
	r, err := NewReader(file, th)
	if err != nil {
		if !errors.Is(err, util.ErrCorrupt) {
			t.Fatalf("NewReader = %v, want ErrCorrupt", err)
		}
		return
	}
	if uint64(max(len(r.filter), len(r.index))) > file.Size() {
		t.Fatalf("filter of %d and index of %d bytes out of a %d-byte file", len(r.filter), len(r.index), file.Size())
	}
	if len(target) >= 8 {
		r.Get(th, target)
	}
	it, err := r.NewIter(th)
	if err != nil {
		return
	}
	defer it.Close()
	it.SeekToFirst()
	for n := 0; it.Valid() && n < 4096; n++ {
		it.Next()
	}
}
