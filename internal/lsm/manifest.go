package lsm

import (
	"fmt"

	"cachekv/internal/util"
)

// RangeDel is one range tombstone carried in a file's metadata: user keys in
// [Start, End) written with a sequence number strictly below Seq are dead.
// Tombstones also live as KindRangeDel entries in the data stream (so they
// survive crashes the same way point writes do); the manifest copy lets point
// reads and scans aggregate coverage without opening every table.
type RangeDel struct {
	Start []byte
	End   []byte
	Seq   uint64
}

// Covers reports whether the tombstone hides a version of ukey written at
// seq. Coverage is strict on sequence: an equal-seq point write survives.
func (rd RangeDel) Covers(ukey []byte, seq uint64) bool {
	return seq < rd.Seq &&
		string(ukey) >= string(rd.Start) && string(ukey) < string(rd.End)
}

// FileMeta describes one SSTable registered in the version set.
type FileMeta struct {
	Num      uint64
	Size     uint64
	Count    int
	Smallest util.InternalKey
	Largest  util.InternalKey
	// RangeDels lists the range tombstones stored in this table. Their spans
	// may extend beyond [Smallest, Largest]: Smallest/Largest cover the entry
	// *keys* (a tombstone entry's key is its start key), not the spans.
	RangeDels []RangeDel
}

// versionEdit is one manifest record: files added/removed plus counters.
// Replaying all edits in order reconstructs the version set after a crash.
type versionEdit struct {
	added    []addedFile
	deleted  []deletedFile
	nextFile uint64 // 0 means unchanged
	lastSeq  uint64 // 0 means unchanged
}

type addedFile struct {
	level int
	meta  FileMeta
}

type deletedFile struct {
	level int
	num   uint64
}

func (e *versionEdit) encode() []byte {
	b := util.PutUvarint(nil, uint64(len(e.added)))
	for _, a := range e.added {
		b = util.PutUvarint(b, uint64(a.level))
		b = util.PutUvarint(b, a.meta.Num)
		b = util.PutUvarint(b, a.meta.Size)
		b = util.PutUvarint(b, uint64(a.meta.Count))
		b = util.PutLengthPrefixed(b, a.meta.Smallest)
		b = util.PutLengthPrefixed(b, a.meta.Largest)
		b = util.PutUvarint(b, uint64(len(a.meta.RangeDels)))
		for _, rd := range a.meta.RangeDels {
			b = util.PutLengthPrefixed(b, rd.Start)
			b = util.PutLengthPrefixed(b, rd.End)
			b = util.PutUvarint(b, rd.Seq)
		}
	}
	b = util.PutUvarint(b, uint64(len(e.deleted)))
	for _, d := range e.deleted {
		b = util.PutUvarint(b, uint64(d.level))
		b = util.PutUvarint(b, d.num)
	}
	b = util.PutUvarint(b, e.nextFile)
	b = util.PutUvarint(b, e.lastSeq)
	return b
}

// decodeEdit parses one manifest record. levels bounds every level number in
// it: the tree indexes its level slices by them.
func decodeEdit(src []byte, levels int) (*versionEdit, error) {
	e, c := &versionEdit{}, util.NewCursor(src)
	badLevel := false
	level := func() int {
		l := c.Uvarint()
		badLevel = badLevel || l >= uint64(levels)
		return int(l)
	}
	key := func() []byte { return append([]byte(nil), c.LengthPrefixed()...) }
	// The smallest added file is its seven one-byte fields, the smallest range
	// tombstone three, the smallest deletion two.
	for i := c.Count(c.Uvarint(), 7); i > 0; i-- {
		a := addedFile{level: level()}
		a.meta.Num, a.meta.Size, a.meta.Count = c.Uvarint(), c.Uvarint(), int(c.Uvarint())
		a.meta.Smallest, a.meta.Largest = key(), key()
		for j := c.Count(c.Uvarint(), 3); j > 0; j-- {
			a.meta.RangeDels = append(a.meta.RangeDels, RangeDel{Start: key(), End: key(), Seq: c.Uvarint()})
		}
		e.added = append(e.added, a)
	}
	for i := c.Count(c.Uvarint(), 2); i > 0; i-- {
		e.deleted = append(e.deleted, deletedFile{level: level(), num: c.Uvarint()})
	}
	e.nextFile, e.lastSeq = c.Uvarint(), c.Uvarint()
	if c.Err() != nil || badLevel {
		return nil, fmt.Errorf("lsm: manifest record: %w", util.ErrCorrupt)
	}
	return e, nil
}
