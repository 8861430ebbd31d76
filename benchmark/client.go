package main

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"cachekv"
)

type opKind uint8

const (
	kPut opKind = iota
	kGet
	kDelete
	kScan
	kApply
	numKinds
)

var kindNames = [numKinds]string{"put", "get", "delete", "scan", "apply"}

func (k opKind) isRead() bool { return k == kGet || k == kScan }

// What a Get is expected to return.
const (
	wantAbsent = -1 // ErrNotFound
	wantAny    = -2 // any self-consistent value of the key (another client may be updating it)
)

const (
	keysPerApply = 4
	blockOps     = 1024 // traced runs record spans in every other block of this many ops
)

// span is one public-API call as the benchmark saw it from outside.
type span struct {
	kind   opKind
	worker uint8
	h0, h1 int64 // host ns since the run began
	v0, v1 int64 // the session's virtual clock
}

type kindStats struct{ n, vns int64 }

// client is one closed-loop caller: it issues the next operation only when
// the previous one has returned, checks every result, and keeps the virtual
// latency of every call. One goroutine uses a client at a time.
type client struct {
	r  *run
	id int
	s  *cachekv.Session

	kbuf  [keyLen]byte
	vbuf  [valueLen]byte
	batch cachekv.Batch

	reads, writes []int64 // virtual ns per call, by class
	kinds         [numKinds]kindStats
	attempted     int64
	failed        int64
	firstFailure  string
	userBytes     int64 // key+value bytes handed to the store
	transient     int64 // Gets that missed a live key and found it on an immediate retry

	vStart, vElapsed int64 // session clock at phase begin; elapsed over closed sessions

	digest uint64 // running hash of every op issued: kind, key, version
	dry    bool   // generator-cost replay: draw and encode the op, skip the store

	// Measured phase only.
	measuring   bool
	blockIdx    int
	blockDone   int
	blockStart  time.Time
	spanOn      bool
	spans       []span
	onOps       int64     // ops issued with span recording on
	onNs, offNs []float64 // host ns per op of each block, by whether spans were on
}

func (c *client) failf(format string, args ...any) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

// fold adds one op to the op-stream digest; in a dry replay that is all an op
// does, and fold reports so.
func (c *client) fold(kind opKind, h, ver uint64) (dry bool) {
	c.digest = (c.digest ^ (h + ver + uint64(kind)<<60)) * 0x100000001b3
	if c.dry {
		c.attempted++
	}
	return c.dry
}

// begin reads the clocks before a call.
func (c *client) begin() (v0, h0 int64) {
	if c.spanOn {
		h0 = int64(time.Since(c.r.t0))
	}
	return c.s.VirtualNanos(), h0
}

// end books a finished call.
func (c *client) end(kind opKind, v0, h0 int64) {
	v1 := c.s.VirtualNanos()
	d := v1 - v0
	c.kinds[kind].n++
	c.kinds[kind].vns += d
	if kind.isRead() {
		c.reads = append(c.reads, d)
	} else {
		c.writes = append(c.writes, d)
	}
	c.attempted++
	if !c.measuring {
		return
	}
	if c.spanOn {
		c.spans = append(c.spans, span{kind, uint8(c.id), h0, int64(time.Since(c.r.t0)), v0, v1})
	}
	if c.blockDone++; c.blockDone == blockOps {
		c.rollBlock()
	}
}

// rollBlock closes the current block of ops and flips span recording for the
// next one, so the traced and untraced halves of a run interleave finely
// enough to see the same store state.
func (c *client) rollBlock() {
	now := time.Now()
	perOp := float64(now.Sub(c.blockStart)) / float64(c.blockDone)
	if c.spanOn {
		c.onNs = append(c.onNs, perOp)
		c.onOps += int64(c.blockDone)
	} else {
		c.offNs = append(c.offNs, perOp)
	}
	c.blockStart, c.blockDone = now, 0
	c.blockIdx++
	c.spanOn = c.r.cfg.trace && c.blockIdx&1 == 1
}

func (c *client) put(idx uint64, ver uint32) {
	h := c.r.ks.hash(idx)
	k, v := putKey(c.kbuf[:], h), putValue(c.vbuf[:], h, uint64(ver))
	if c.fold(kPut, h, uint64(ver)) {
		return
	}
	v0, h0 := c.begin()
	err := c.s.Put(k, v)
	c.end(kPut, v0, h0)
	c.userBytes += keyLen + valueLen
	if err != nil {
		c.failf("put %s: %v", k, err)
		return
	}
	c.r.ver[idx] = ver
}

func (c *client) delete(idx uint64) {
	h := c.r.ks.hash(idx)
	k := putKey(c.kbuf[:], h)
	if c.fold(kDelete, h, 0) {
		return
	}
	v0, h0 := c.begin()
	err := c.s.Delete(k)
	c.end(kDelete, v0, h0)
	c.userBytes += keyLen
	if err != nil {
		c.failf("delete %s: %v", k, err)
		return
	}
	c.r.ver[idx] = 0
}

// apply commits one atomic batch that puts every key of idxs at version ver.
func (c *client) apply(idxs []uint64, ver uint32) {
	c.batch.Reset()
	for _, idx := range idxs {
		h := c.r.ks.hash(idx)
		c.batch.Put(putKey(c.kbuf[:], h), putValue(c.vbuf[:], h, uint64(ver)))
		c.fold(kApply, h, uint64(ver))
	}
	if c.dry {
		c.attempted -= int64(len(idxs)) - 1 // one op, however many keys
		return
	}
	v0, h0 := c.begin()
	err := c.s.Apply(&c.batch)
	c.end(kApply, v0, h0)
	c.userBytes += int64(len(idxs)) * (keyLen + valueLen)
	if err != nil {
		c.failf("apply of %d keys: %v", len(idxs), err)
		return
	}
	for _, idx := range idxs {
		c.r.ver[idx] = ver
	}
}

// get reads key idx and checks the result: want is an exact version,
// wantAbsent or wantAny.
func (c *client) get(idx uint64, want int64) {
	h := c.r.ks.hash(idx)
	k := putKey(c.kbuf[:], h)
	if c.fold(kGet, h, 0) {
		return
	}
	v0, h0 := c.begin()
	v, err := c.s.Get(k)
	c.end(kGet, v0, h0)
	switch {
	case errors.Is(err, cachekv.ErrNotFound):
		if want == wantAbsent {
			break
		}
		// The engine at this PR's parent can miss a key for an instant while a
		// background flush hands a sub-MemTable over to the ImmZone (README,
		// "Known defect"). A miss that an immediate retry resolves is counted
		// and reported, not failed; a key that stays missing is a failure.
		if v, err := c.s.Get(k); err == nil {
			if ver, ok := checkValue(v, h); ok && (want < 0 || int64(ver) == want) {
				c.transient++
				break
			}
		}
		c.failf("get %s: not found, want version %d", k, want)
	case err != nil:
		c.failf("get %s: %v", k, err)
	case want == wantAbsent:
		c.failf("get %s: found a value for a key that is absent", k)
	default:
		ver, ok := checkValue(v, h)
		if !ok {
			c.failf("get %s: value fails its key-hash/filler check", k)
		} else if want >= 0 && int64(ver) != want {
			c.failf("get %s: version %d, want %d", k, ver, want)
		}
	}
}

// scan reads limit rows from key idx on and checks them against the sorted
// list of live key hashes: every row must be the next live key, in order,
// with a sound value, and the scan must be exactly as long as the key space
// allows.
func (c *client) scan(idx uint64, limit int) {
	h := c.r.ks.hash(idx)
	k := putKey(c.kbuf[:], h)
	if c.fold(kScan, h, uint64(limit)) {
		return
	}
	live := c.r.sorted
	pos := sort.Search(len(live), func(i int) bool { return live[i] >= h })
	wantRows := min(limit, len(live)-pos)
	bad := ""
	row := 0
	v0, h0 := c.begin()
	n, err := c.s.Scan(k, limit, func(key, value []byte) bool {
		if row < wantRows && bad == "" {
			kh, ok := parseKey(key)
			if !ok || kh != live[pos+row] {
				bad = fmt.Sprintf("row %d is %q, want the key of hash %016x", row, key, live[pos+row])
			} else if _, ok := checkValue(value, kh); !ok {
				bad = fmt.Sprintf("row %d (%s): value fails its check", row, key)
			}
		}
		row++
		return true
	})
	c.end(kScan, v0, h0)
	switch {
	case err != nil:
		c.failf("scan from %s: %v", k, err)
	case bad != "":
		c.failf("scan from %s: %s", k, bad)
	case n != wantRows || row != wantRows:
		c.failf("scan from %s: %d rows (callback saw %d), want %d", k, n, row, wantRows)
	}
}
