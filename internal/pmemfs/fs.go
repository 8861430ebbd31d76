// Package pmemfs provides a minimal file layer over the simulated PMem, the
// role a DAX filesystem plays on the paper's testbed (all SSTables live in
// the Optane PMem, as in NoveLSM and ChameleonDB). Files are created with a
// capacity, appended sequentially, sealed, and later read or deleted.
//
// Directory metadata is itself persisted: every create/seal/delete appends a
// CRC-protected record to an on-PMem directory log written with non-temporal
// stores, and Mount replays that log. Crash at any point loses at most the
// unsealed file being written — the same contract a real filesystem gives
// LevelDB, whose recovery discards unfinished SSTables.
package pmemfs

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"cachekv/internal/hw"
	"cachekv/internal/hw/cache"
	"cachekv/internal/util"
)

// Errors returned by the filesystem.
var (
	ErrNotFound = errors.New("pmemfs: file not found")
	ErrExists   = errors.New("pmemfs: file already exists")
	ErrNoSpace  = errors.New("pmemfs: out of space")
	ErrSealed   = errors.New("pmemfs: file is sealed")
)

const (
	dirLogSize = 1 << 20 // directory log area at the head of the region
	recCreate  = 1
	recSeal    = 2
	recDelete  = 3
)

type fileMeta struct {
	name   string
	addr   uint64
	cap    uint64
	size   uint64
	sealed bool
}

type extent struct{ addr, size uint64 }

// FS is one mounted filesystem instance.
type FS struct {
	m      *hw.Machine
	region hw.Region

	mu      sync.Mutex
	files   map[string]*fileMeta
	logTail uint64 // next free byte in the directory log
	next    uint64 // bump pointer in the data area
	free    []extent
}

// Mount opens (or initializes) a filesystem on region, replaying any
// directory log found there. The thread's clock is charged for the replay
// reads.
func Mount(m *hw.Machine, region hw.Region, th *hw.Thread) (*FS, error) {
	if region.Size < dirLogSize*2 {
		return nil, fmt.Errorf("pmemfs: region too small (%d bytes)", region.Size)
	}
	fs := &FS{
		m:       m,
		region:  region,
		files:   make(map[string]*fileMeta),
		logTail: region.Addr,
		next:    region.Addr + dirLogSize,
	}
	if err := fs.replay(th); err != nil {
		return nil, err
	}
	// A file created but never sealed was being written when power failed. No
	// writer survives a mount, so discard it — logged, so that a later replay
	// does not find it holding an extent since handed to another file — or its
	// name and extent stay taken for good.
	var torn []string
	for name, f := range fs.files {
		if !f.sealed {
			torn = append(torn, name)
		}
	}
	sort.Strings(torn)
	for _, name := range torn {
		if err := fs.Delete(th, name); err != nil {
			return nil, err
		}
	}
	return fs, nil
}

// replay scans the directory log until the first invalid record.
func (fs *FS) replay(th *hw.Thread) error {
	var off uint64 // into the directory log
	var hdr [4]byte
	for util.InExtent(off, 4, dirLogSize) {
		fs.m.PMem.Read(th.Clock, fs.region.Addr+off, hdr[:])
		h := util.NewCursor(hdr[:])
		recLen := uint64(h.U32())
		if recLen == 0 || !util.InExtent(off+4, recLen, dirLogSize) {
			break
		}
		rec := make([]byte, recLen)
		fs.m.PMem.Read(th.Clock, fs.region.Addr+off+4, rec)
		c := util.NewCursor(rec)
		// A record too short for a type byte and its CRC ends the log too:
		// recLen-4 wraps or is 0, and Bytes hands back nothing.
		body, stored := c.Bytes(recLen-4), c.U32()
		if len(body) == 0 || util.UnmaskCRC(stored) != util.CRC(body) {
			break
		}
		if err := fs.apply(body); err != nil {
			return err
		}
		off += 4 + recLen
	}
	fs.logTail = fs.region.Addr + off
	// Rebuild the bump pointer past the highest extent in use.
	for _, f := range fs.files {
		if f.addr+f.cap > fs.next {
			fs.next = f.addr + f.cap
		}
	}
	return nil
}

// apply replays one directory record. A created file's extent is checked
// against the data area here, and a sealed size against the extent, so that
// File.ReadAt's offset check is all a read needs.
func (fs *FS) apply(body []byte) error {
	c := util.NewCursor(body)
	typ, name := c.U8(), string(c.LengthPrefixed())
	switch typ {
	case recCreate:
		f := &fileMeta{name: name, addr: c.U64(), cap: c.U64()}
		if c.Err() == nil && f.addr >= fs.region.Addr+dirLogSize &&
			util.InExtent(f.addr-fs.region.Addr, f.cap, fs.region.Size) {
			fs.files[name] = f
			return nil
		}
	case recSeal:
		size := c.U64()
		if f, ok := fs.files[name]; c.Err() == nil && (!ok || size <= f.cap) {
			if ok {
				f.size, f.sealed = size, true
			}
			return nil
		}
	case recDelete:
		if c.Err() == nil {
			delete(fs.files, name)
			return nil
		}
	}
	return fmt.Errorf("pmemfs: directory record of type %d: %w", typ, util.ErrCorrupt)
}

// appendLog persists one directory record (caller holds fs.mu).
func (fs *FS) appendLog(th *hw.Thread, body []byte) error {
	rec := make([]byte, 0, len(body)+8)
	rec = append(rec, body...)
	rec = util.PutFixed32(rec, util.MaskCRC(util.CRC(body)))
	framed := util.PutFixed32(nil, uint32(len(rec)))
	framed = append(framed, rec...)
	if fs.logTail+uint64(len(framed)) > fs.region.Addr+dirLogSize {
		return fmt.Errorf("pmemfs: directory log full")
	}
	fs.m.Cache.NTWrite(th.Clock, fs.logTail, framed)
	fs.logTail += uint64(len(framed))
	return nil
}

func createBody(name string, addr, capacity uint64) []byte {
	b := []byte{recCreate}
	b = util.PutLengthPrefixed(b, []byte(name))
	b = util.PutFixed64(b, addr)
	return util.PutFixed64(b, capacity)
}

func sealBody(name string, size uint64) []byte {
	b := []byte{recSeal}
	b = util.PutLengthPrefixed(b, []byte(name))
	return util.PutFixed64(b, size)
}

func deleteBody(name string) []byte {
	b := []byte{recDelete}
	return util.PutLengthPrefixed(b, []byte(name))
}

// allocExtent finds space for capacity bytes (caller holds fs.mu): best-fit
// from the free list, else the bump pointer.
func (fs *FS) allocExtent(capacity uint64) (uint64, error) {
	best := -1
	for i, e := range fs.free {
		if e.size >= capacity && (best < 0 || e.size < fs.free[best].size) {
			best = i
		}
	}
	if best >= 0 {
		e := fs.free[best]
		fs.free = append(fs.free[:best], fs.free[best+1:]...)
		if e.size > capacity {
			fs.free = append(fs.free, extent{e.addr + capacity, e.size - capacity})
		}
		return e.addr, nil
	}
	addr := (fs.next + 255) &^ 255
	if addr+capacity > fs.region.End() {
		return 0, ErrNoSpace
	}
	fs.next = addr + capacity
	return addr, nil
}

// Create allocates a file with the given byte capacity and returns a writer.
func (fs *FS) Create(th *hw.Thread, name string, capacity uint64) (*Writer, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if _, ok := fs.files[name]; ok {
		return nil, ErrExists
	}
	addr, err := fs.allocExtent(capacity)
	if err != nil {
		return nil, err
	}
	f := &fileMeta{name: name, addr: addr, cap: capacity}
	if err := fs.appendLog(th, createBody(name, addr, capacity)); err != nil {
		return nil, err
	}
	fs.files[name] = f
	return &Writer{fs: fs, f: f}, nil
}

// Open returns a reader for a sealed file.
func (fs *FS) Open(name string) (*File, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok || !f.sealed {
		return nil, ErrNotFound
	}
	return &File{fs: fs, f: f}, nil
}

// Delete removes a file and recycles its extent.
func (fs *FS) Delete(th *hw.Thread, name string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return ErrNotFound
	}
	if err := fs.appendLog(th, deleteBody(name)); err != nil {
		return err
	}
	delete(fs.files, name)
	fs.free = append(fs.free, extent{f.addr, f.cap})
	return nil
}

// List returns the names of sealed files, sorted.
func (fs *FS) List() []string {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	names := make([]string, 0, len(fs.files))
	for n, f := range fs.files {
		if f.sealed {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names
}

// FreeBytes returns the data-area bytes no file holds: the recycled extents
// plus everything past the bump pointer.
func (fs *FS) FreeBytes() uint64 {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	free := fs.region.End() - fs.next
	for _, e := range fs.free {
		free += e.size
	}
	return free
}

// Size returns a sealed file's length.
func (fs *FS) Size(name string) (uint64, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	f, ok := fs.files[name]
	if !ok {
		return 0, ErrNotFound
	}
	return f.size, nil
}

// Writer appends to an unsealed file. Not safe for concurrent use.
type Writer struct {
	fs  *FS
	f   *fileMeta
	err error
}

// Append writes data at the current tail using non-temporal stores (the DAX
// equivalent of buffered writes + fsync in LevelDB; sequential whole-line
// traffic that does not disturb the LLC).
func (w *Writer) Append(th *hw.Thread, data []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.f.sealed {
		return ErrSealed
	}
	if w.f.size+uint64(len(data)) > w.f.cap {
		w.err = ErrNoSpace
		return w.err
	}
	w.fs.m.Cache.NTWrite(th.Clock, w.f.addr+w.f.size, data)
	w.f.size += uint64(len(data))
	return nil
}

// Offset returns the current file length.
func (w *Writer) Offset() uint64 { return w.f.size }

// Addr returns the PMem address the next Append writes to, as File.Addr will
// give it once the file is sealed; writers use it to lay data out on cache
// lines.
func (w *Writer) Addr() uint64 { return w.f.addr + w.f.size }

// Finish seals the file, making it visible to Open and durable in the
// directory log.
func (w *Writer) Finish(th *hw.Thread) error {
	if w.err != nil {
		return w.err
	}
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if err := w.fs.appendLog(th, sealBody(w.f.name, w.f.size)); err != nil {
		return err
	}
	w.f.sealed = true
	return nil
}

// Abort discards an unsealed file, recycling its extent.
func (w *Writer) Abort(th *hw.Thread) {
	w.fs.mu.Lock()
	defer w.fs.mu.Unlock()
	if w.f.sealed {
		return
	}
	_ = w.fs.appendLog(th, deleteBody(w.f.name))
	delete(w.fs.files, w.f.name)
	w.fs.free = append(w.fs.free, extent{w.f.addr, w.f.cap})
}

// File reads a sealed file.
type File struct {
	fs *FS
	f  *fileMeta
}

// Size returns the file length.
func (f *File) Size() uint64 { return f.f.size }

// Addr returns the PMem address of the file's byte off, as a DAX mapping
// exposes it; readers use it to align partial reads to cache lines.
func (f *File) Addr(off uint64) uint64 { return f.f.addr + off }

// ReadAt fills buf from the given offset, going through the LLC (repeated
// reads of hot SSTable blocks hit the cache, as on real hardware).
func (f *File) ReadAt(th *hw.Thread, off uint64, buf []byte) error {
	if !util.InExtent(off, uint64(len(buf)), f.f.size) {
		return fmt.Errorf("pmemfs: read of %d bytes at %d beyond EOF %d", len(buf), off, f.f.size)
	}
	f.fs.m.Cache.Read(th.Clock, f.f.addr+off, buf, cache.DefaultPartition)
	return nil
}
