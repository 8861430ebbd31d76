// Package faultinject is the crash-schedule exploration harness: it numbers
// every persistence-plane operation an engine issues (Write / NTWrite /
// Flush / FlushOpt / Invalidate, each with its implied fence), freezes the
// simulated platform at a chosen event, applies the persistence-domain rule
// (eADR drains dirty cache lines, ADR drops them), optionally injects media
// faults — torn 256 B XPLine writes at the crash frontier, or a CRC-breaking
// bit flip into previously persisted bytes — runs the engine's recovery, and
// checks a durability oracle over the recovered store.
//
// Everything is deterministic: a schedule is fully identified by (family,
// engine, domain, workload seed, op count, crash-point index, fault mode),
// and re-running it reproduces the same event stream, the same durable
// state, and the same verdict. Exhaustive sweeps enumerate every crash
// point of a workload; bounded sweeps sample them from a seeded RNG.
package faultinject

import (
	"fmt"
	"strings"
	"sync"

	"cachekv/internal/hw/cache"
	"cachekv/internal/hw/sim"
)

// Fault selects the media-fault mode applied at the crash point.
type Fault int

const (
	// FaultNone suppresses the crash-point operation entirely: the crash
	// happened just before the operation took effect. Events 1..k-1 are
	// durable (subject to the persistence domain), event k and later never
	// reached the platform.
	FaultNone Fault = iota
	// FaultTorn applies only a prefix of the crash-point operation, cut at a
	// 256 B XPLine boundary chosen by the schedule's RNG — a torn media
	// write at the crash frontier. If the operation spans no XPLine boundary
	// it degenerates to FaultNone.
	FaultTorn
	// FaultFlip suppresses the crash-point operation and, after the domain
	// rule runs, flips one bit inside the byte range of the last operation
	// that did take effect — modelling media corruption discovered at
	// recovery time. CRC checks must detect it; recovery must not fabricate
	// data or panic, though it may legitimately lose the corrupted suffix.
	FaultFlip
)

var faultNames = [...]string{"none", "torn", "flip"}

// String returns the fault mode's short name.
func (f Fault) String() string {
	if int(f) < len(faultNames) {
		return faultNames[f]
	}
	return "fault?"
}

// ParseFault inverts String (the name a Schedule prints).
func ParseFault(name string) (Fault, error) {
	for f, n := range faultNames {
		if n == name {
			return Fault(f), nil
		}
	}
	return 0, fmt.Errorf("unknown fault %q (want none, torn, or flip)", name)
}

// ParseDomain resolves a persistence-domain name as a Schedule prints it,
// in any letter case.
func ParseDomain(name string) (cache.Domain, error) {
	for _, d := range []cache.Domain{cache.ADR, cache.EADR} {
		if strings.EqualFold(name, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown domain %q (want adr or eadr)", name)
}

// opRec describes one persistence-plane operation.
type opRec struct {
	op   sim.MemOp
	addr uint64
	n    int
}

// Injector is the sim.MemGate implementation behind the harness. Armed with
// a crash point k, it counts mutating operations; when the counter reaches k
// the platform freezes — the crash-point operation is suppressed (or torn),
// and every later mutating operation is suppressed while reads are served
// from the visible content without installing cache lines. The engine's
// software keeps running (a "zombie" window) until the workload runner
// notices the freeze and halts it; nothing the zombie does can reach
// durable state.
type Injector struct {
	mu      sync.Mutex
	armed   bool
	crashAt int64
	fault   Fault
	rng     *sim.RNG

	events int64
	frozen bool
	hash   uint64
	last   opRec // most recent fully applied mutating op

	flipOK   bool
	flipAddr uint64
	flipBit  uint
}

// NewInjector returns a disarmed injector; its Gate passes everything
// through (while still counting, so event totals can be measured without
// crashing).
func NewInjector() *Injector { return &Injector{} }

// Arm configures the injector to freeze the platform at event crashAt
// (1-based) with the given fault mode. seed drives the fault mode's random
// choices (torn cut position, flipped bit), making the schedule reproducible.
// crashAt <= 0 arms counting only: events are numbered but never suppressed.
func (inj *Injector) Arm(crashAt int64, fault Fault, seed uint64) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	inj.armed = true
	inj.crashAt = crashAt
	inj.fault = fault
	inj.rng = sim.NewRNG(seed)
	inj.events = 0
	inj.frozen = false
	inj.hash = fnvOffset
	inj.last = opRec{}
	inj.flipOK = false
}

const (
	fnvOffset = 0xcbf29ce484222325
	fnvPrime  = 0x100000001b3
)

func fnvMix(h uint64, vals ...uint64) uint64 {
	for _, v := range vals {
		for i := 0; i < 8; i++ {
			h ^= (v >> (8 * i)) & 0xff
			h *= fnvPrime
		}
	}
	return h
}

// Gate is the sim.MemGate the harness installs via Machine.SetMemGate.
func (inj *Injector) Gate(op sim.MemOp, addr uint64, n int) int {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	if op == sim.MemOpRead {
		if inj.frozen {
			return 0 // serve without installing lines
		}
		return n
	}
	if !inj.armed || n <= 0 {
		return n
	}
	if inj.frozen {
		return 0
	}
	inj.events++
	inj.hash = fnvMix(inj.hash, uint64(op), addr, uint64(n))
	if inj.crashAt > 0 && inj.events == inj.crashAt {
		inj.frozen = true
		switch inj.fault {
		case FaultTorn:
			return tornPrefix(addr, n, inj.rng)
		case FaultFlip:
			if inj.last.n > 0 {
				off := inj.rng.Uint64n(uint64(inj.last.n))
				inj.flipAddr = inj.last.addr + off
				inj.flipBit = uint(inj.rng.Intn(8))
				inj.flipOK = true
			}
			return 0
		default:
			return 0
		}
	}
	inj.last = opRec{op: op, addr: addr, n: n}
	return n
}

// tornPrefix picks the torn cut: the largest applied prefix ends at an
// XPLine (256 B) boundary strictly inside [addr, addr+n). When the range
// spans no interior boundary nothing is applied.
func tornPrefix(addr uint64, n int, rng *sim.RNG) int {
	const xp = 256
	first := (addr + xp) &^ (xp - 1) // first boundary strictly above addr
	end := addr + uint64(n)
	if first >= end {
		return 0
	}
	k := (end - first + xp - 1) / xp // boundaries in [first, end)
	return int(first + xp*rng.Uint64n(k) - addr)
}

// Events returns how many mutating operations have been numbered so far.
func (inj *Injector) Events() int64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.events
}

// Frozen reports whether the crash point has been reached.
func (inj *Injector) Frozen() bool {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.frozen
}

// StreamHash returns the FNV-1a hash of the applied operation stream
// (kind, address, length per event) — a determinism fingerprint: identical
// schedules produce identical hashes.
func (inj *Injector) StreamHash() uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.hash
}

// FlipTarget returns the media address and bit the FaultFlip mode selected,
// if any. The harness applies the flip after the domain rule has run.
func (inj *Injector) FlipTarget() (addr uint64, bit uint, ok bool) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.flipAddr, inj.flipBit, inj.flipOK
}
