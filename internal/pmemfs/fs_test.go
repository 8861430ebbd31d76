package pmemfs

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"cachekv/internal/hw"
	"cachekv/internal/util"
)

func newFS(t *testing.T) (*hw.Machine, *FS, *hw.Thread) {
	t.Helper()
	m := hw.NewMachine(hw.Config{PMemBytes: 256 << 20})
	th := m.NewThread(0)
	fs, err := Mount(m, m.Alloc("fs", 64<<20, 0), th)
	if err != nil {
		t.Fatal(err)
	}
	return m, fs, th
}

func TestCreateWriteRead(t *testing.T) {
	_, fs, th := newFS(t)
	w, err := fs.Create(th, "000001.sst", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("hello sstable world")
	if err := w.Append(th, data); err != nil {
		t.Fatal(err)
	}
	if err := w.Finish(th); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Open("000001.sst")
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != uint64(len(data)) {
		t.Fatalf("Size = %d", f.Size())
	}
	got := make([]byte, len(data))
	if err := f.ReadAt(th, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q", got)
	}
}

func TestOpenUnsealedFails(t *testing.T) {
	_, fs, th := newFS(t)
	if _, err := fs.Create(th, "f", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("f"); err != ErrNotFound {
		t.Fatalf("Open(unsealed) = %v", err)
	}
}

func TestDuplicateCreate(t *testing.T) {
	_, fs, th := newFS(t)
	if _, err := fs.Create(th, "f", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Create(th, "f", 4096); err != ErrExists {
		t.Fatalf("duplicate Create = %v", err)
	}
}

func TestCapacityEnforced(t *testing.T) {
	_, fs, th := newFS(t)
	w, _ := fs.Create(th, "small", 100)
	if err := w.Append(th, make([]byte, 101)); err != ErrNoSpace {
		t.Fatalf("overflow Append = %v", err)
	}
}

func TestReadBeyondEOF(t *testing.T) {
	_, fs, th := newFS(t)
	w, _ := fs.Create(th, "f", 4096)
	w.Append(th, []byte("abc"))
	w.Finish(th)
	f, _ := fs.Open("f")
	for _, tc := range []struct {
		off  uint64
		n    int
		fits bool
	}{
		{0, 3, true}, {3, 0, true}, {2, 10, false}, {4, 0, false},
		{^uint64(0) - 7, 16, false}, // off+n wraps to 8: must not read a wild address
		{^uint64(0), 1, false},
	} {
		if err := f.ReadAt(th, tc.off, make([]byte, tc.n)); (err == nil) != tc.fits {
			t.Errorf("ReadAt(%d, %d bytes) of a 3-byte file = %v, want success %v", tc.off, tc.n, err, tc.fits)
		}
	}
}

// A directory record with a good CRC is still media bytes: a file whose extent
// leaves the data area, or whose sealed size exceeds its extent, would turn
// ReadAt's offset check into a read of someone else's memory.
func TestMountRejectsHostileRecords(t *testing.T) {
	for name, rec := range map[string]func(r hw.Region) []byte{
		"extent inside the directory log": func(r hw.Region) []byte { return createBody("f", r.Addr, 4096) },
		"extent past the region":          func(r hw.Region) []byte { return createBody("f", r.End(), 4096) },
		"capacity past the region":        func(r hw.Region) []byte { return createBody("f", r.Addr+dirLogSize, r.Size) },
		"capacity near 2^64":              func(r hw.Region) []byte { return createBody("f", r.Addr+dirLogSize, ^uint64(0)-8) },
		"sealed past its capacity":        func(hw.Region) []byte { return sealBody("ok", 4097) },
		"unknown type":                    func(hw.Region) []byte { return []byte{9, 1, 'f'} },
		"name runs past the record":       func(hw.Region) []byte { return []byte{recDelete, 200, 'f'} },
		"truncated create":                func(r hw.Region) []byte { return createBody("f", r.Addr+dirLogSize, 4096)[:12] },
	} {
		t.Run(name, func(t *testing.T) {
			m := hw.NewMachine(hw.Config{PMemBytes: 256 << 20})
			th := m.NewThread(0)
			region := m.Alloc("fs", 64<<20, 0)
			fs, err := Mount(m, region, th)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fs.Create(th, "ok", 4096); err != nil {
				t.Fatal(err)
			}
			if err := fs.appendLog(th, rec(region)); err != nil {
				t.Fatal(err)
			}
			if _, err := Mount(m, region, th); !errors.Is(err, util.ErrCorrupt) {
				t.Fatalf("Mount over the record = %v, want ErrCorrupt", err)
			}
		})
	}
}

func TestDeleteAndReuse(t *testing.T) {
	_, fs, th := newFS(t)
	w, _ := fs.Create(th, "a", 1<<20)
	w.Append(th, []byte("aaa"))
	w.Finish(th)
	if err := fs.Delete(th, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := fs.Open("a"); err != ErrNotFound {
		t.Fatal("deleted file still opens")
	}
	if err := fs.Delete(th, "a"); err != ErrNotFound {
		t.Fatalf("double delete = %v", err)
	}
	// The freed extent should be reusable.
	w2, err := fs.Create(th, "b", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	w2.Append(th, []byte("bbb"))
	w2.Finish(th)
	f, _ := fs.Open("b")
	got := make([]byte, 3)
	f.ReadAt(th, 0, got)
	if string(got) != "bbb" {
		t.Fatalf("reused extent corrupted: %q", got)
	}
}

func TestAbort(t *testing.T) {
	_, fs, th := newFS(t)
	w, _ := fs.Create(th, "tmp", 4096)
	w.Append(th, []byte("x"))
	w.Abort(th)
	if _, err := fs.Open("tmp"); err != ErrNotFound {
		t.Fatal("aborted file visible")
	}
	// Name reusable after abort.
	if _, err := fs.Create(th, "tmp", 4096); err != nil {
		t.Fatal(err)
	}
}

func TestList(t *testing.T) {
	_, fs, th := newFS(t)
	for _, name := range []string{"c", "a", "b"} {
		w, _ := fs.Create(th, name, 4096)
		w.Append(th, []byte("1"))
		w.Finish(th)
	}
	w, _ := fs.Create(th, "unsealed", 4096)
	_ = w
	got := fs.List()
	want := []string{"a", "b", "c"}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("List = %v", got)
	}
	if sz, err := fs.Size("a"); err != nil || sz != 1 {
		t.Fatalf("Size(a) = %d, %v", sz, err)
	}
	if _, err := fs.Size("zz"); err != ErrNotFound {
		t.Fatal("Size of missing file should fail")
	}
}

func TestRemountRecoversDirectory(t *testing.T) {
	m := hw.NewMachine(hw.Config{PMemBytes: 256 << 20})
	th := m.NewThread(0)
	region := m.Alloc("fs", 64<<20, 0)
	fs, err := Mount(m, region, th)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		w, err := fs.Create(th, fmt.Sprintf("%06d.sst", i), 64<<10)
		if err != nil {
			t.Fatal(err)
		}
		w.Append(th, []byte(fmt.Sprintf("content-%d", i)))
		if err := w.Finish(th); err != nil {
			t.Fatal(err)
		}
	}
	fs.Delete(th, "000002.sst")
	// Crash and remount: sealed files (minus the deleted one) must reappear
	// with intact contents.
	m.Crash()
	m.Recover()
	th = m.NewThread(0) // the old boot's thread would store nothing
	fs2, err := Mount(m, region, th)
	if err != nil {
		t.Fatal(err)
	}
	got := fs2.List()
	if len(got) != 4 {
		t.Fatalf("recovered %d files: %v", len(got), got)
	}
	f, err := fs2.Open("000003.sst")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, f.Size())
	f.ReadAt(th, 0, buf)
	if string(buf) != "content-3" {
		t.Fatalf("recovered content %q", buf)
	}
	// New files allocate past recovered ones without overlap.
	w, err := fs2.Create(th, "new.sst", 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	w.Append(th, []byte("new"))
	w.Finish(th)
	f3, _ := fs2.Open("000003.sst")
	buf3 := make([]byte, f3.Size())
	f3.ReadAt(th, 0, buf3)
	if string(buf3) != "content-3" {
		t.Fatal("new allocation overwrote recovered file")
	}
}

func TestUnsealedFileLostOnCrash(t *testing.T) {
	m := hw.NewMachine(hw.Config{PMemBytes: 256 << 20})
	th := m.NewThread(0)
	region := m.Alloc("fs", 64<<20, 0)
	fs, _ := Mount(m, region, th)
	w, _ := fs.Create(th, "wip", 4096)
	w.Append(th, []byte("partial"))
	m.Crash()
	m.Recover()
	th = m.NewThread(0) // the old boot's thread would store nothing
	fs2, err := Mount(m, region, th)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fs2.Open("wip"); err != ErrNotFound {
		t.Fatal("unsealed file survived crash as openable")
	}
	// Nor may it keep its name or its extent: the writer that restarts after
	// recovery creates the same file again, and a later mount must not find
	// the discarded extent under a file created since.
	free := fs2.FreeBytes()
	w2, err := fs2.Create(th, "wip", 4096)
	if err != nil {
		t.Fatalf("re-create of the discarded file: %v", err)
	}
	w2.Append(th, []byte("whole"))
	if err := w2.Finish(th); err != nil {
		t.Fatal(err)
	}
	if got := fs2.FreeBytes(); got != free-4096 {
		t.Fatalf("free space %d after re-creating a 4096-byte file, was %d", got, free)
	}
	fs3, err := Mount(m, region, th)
	if err != nil {
		t.Fatal(err)
	}
	f, err := fs3.Open("wip")
	if err != nil {
		t.Fatalf("second mount: %v", err)
	}
	if f.Size() != 5 {
		t.Fatalf("second mount: size %d, want the re-created file's 5", f.Size())
	}
}

func TestMountTooSmall(t *testing.T) {
	m := hw.NewMachine(hw.Config{PMemBytes: 64 << 20})
	th := m.NewThread(0)
	if _, err := Mount(m, m.Alloc("tiny", 4096, 0), th); err == nil {
		t.Fatal("tiny region should fail to mount")
	}
}
