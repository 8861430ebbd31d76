package faultinject

// oracle.go is the one crash oracle (DESIGN.md §6 "The oracle"), in two
// halves: probe reads the recovered engine, judge — a pure function of the
// script and what probe read — says whether the crash contract explains it.

import (
	"errors"
	"fmt"

	"cachekv/internal/core"
	"cachekv/internal/hw"
	"cachekv/internal/kvstore"
)

// ghostKeys are written by no script and must never be readable; probeKey is
// the healthy write a recovered core.Store must admit.
var ghostKeys = []string{"zz-ghost-0", "zz-ghost-1"}

const probeKey = "zz-probe-post"

// probe Gets every key of the universe and the ghost keys, then scans the
// whole store: every scanned entry must belong to the universe, arrive in
// ascending order and agree with Get (an entry visible to one and not the
// other is an index/filter inconsistency even when both states are
// individually admissible). A recovered core.Store must also come back in
// the OK flow state with writes admitted — checked last, so the probe write
// is in no Get or Scan above. It returns the present keys and their values.
func probe(db kvstore.DB, th *hw.Thread, keys []string) (recovered map[string]string, violations []string) {
	fail := func(format string, args ...any) {
		violations = append(violations, fmt.Sprintf(format, args...))
	}
	get := func(key string) (string, bool) {
		v, err := db.Get(th, []byte(key))
		if err != nil && !errors.Is(err, kvstore.ErrNotFound) {
			fail("get %q: unexpected error %v", key, err)
		}
		return string(v), err == nil
	}
	recovered = make(map[string]string)
	universe := make(map[string]bool, len(keys))
	for _, key := range keys {
		universe[key] = true
		if v, ok := get(key); ok {
			recovered[key] = v
		}
	}
	for _, key := range ghostKeys {
		if v, ok := get(key); ok {
			fail("ghost key %q readable: %q", key, v)
		}
	}

	scanned := make(map[string]bool)
	var prev string
	_, err := db.Scan(th, nil, 0, func(k, v []byte) bool {
		key := string(k)
		if len(scanned) > 0 && key <= prev {
			fail("scan: %q after %q, not strictly ascending", key, prev)
		}
		prev = key
		scanned[key] = true
		if got, ok := recovered[key]; !universe[key] {
			fail("scan: fabricated key %q = %q", key, v)
		} else if !ok {
			fail("scan/get disagree on %q: scan %q, get <absent>", key, v)
		} else if got != string(v) {
			fail("scan/get disagree on %q: scan %q, get %q", key, v, got)
		}
		return true
	})
	if err != nil {
		fail("scan: unexpected error %v", err)
	}
	for _, key := range keys {
		if v, ok := recovered[key]; ok && !scanned[key] {
			fail("key %q visible to get (%q) but missing from scan", key, v)
		}
	}

	if st, ok := db.(core.Store); ok {
		if fs := st.FlowState(); fs != core.FlowOK {
			fail("recovered engine stuck in flow state %v", fs)
		}
		b := &core.Batch{}
		b.Put([]byte(probeKey), []byte("p"))
		if err := st.Write(th, b, ampleDeadline); err != nil {
			fail("recovered engine rejected a healthy write: %v", err)
		}
	}
	return recovered, violations
}

// judge is the reference model. Steps before inflight were acknowledged, step
// inflight (len(sc.Steps) if the script completed) was interrupted, later
// steps were never issued; recovered holds the keys of sc.Keys that survived.
//
// Per key, the model keeps the ordered mutations of issued, non-rejected
// steps; position p is the state after the first p of them. With durable the
// contract allows the positions after every acknowledged mutation (the
// in-flight one optional); without it — cache-resident data under ADR, or a
// bit flip that may eat a persisted suffix — any position, since validity
// still holds: no fabricated value, no out-of-order survival. A key whose
// recovered state matches no allowed position is a violation: an acked write
// lost, an acked delete resurrected, a stale or fabricated value, or a
// rejected or never-issued step surfacing.
//
// With atomic, a step of two or more keys is applied or not as a whole: a
// step is torn when some key can only be explained before it and another
// only after it. A key explained on either side is narrowed to the side its
// step-mates need, until nothing moves, so a tear that only shows across
// two steps (a put batch and the delete batch after it) is still found.
func judge(sc *Script, inflight int, durable, atomic bool, recovered map[string]string) []string {
	type mutation struct {
		step int
		Mutation
	}
	issued := sc.Steps[:min(inflight+1, len(sc.Steps))]
	hist := make(map[string][]mutation)
	for i, s := range issued {
		if s.Reject {
			continue
		}
		for _, m := range s.Muts {
			h := hist[m.Key]
			if n := len(h); n > 0 && h[n-1].step == i {
				h = h[:n-1] // one commit: the step's last write of a key wins
			}
			hist[m.Key] = append(h, mutation{i, m})
		}
	}

	var out []string
	positions := make(map[string][]int)
	for _, key := range sc.Keys {
		h := hist[key]
		got, present := recovered[key]
		acked := 0
		for acked < len(h) && h[acked].step < inflight {
			acked++
		}
		lo := 0
		if durable {
			lo = acked
		}
		for p := lo; p <= len(h); p++ {
			if absent := p == 0 || h[p-1].Delete; absent != present && (absent || h[p-1].Value == got) {
				positions[key] = append(positions[key], p)
			}
		}
		if len(positions[key]) > 0 {
			continue
		}
		// Nothing matched: name the clause. What is left of an issued write
		// here sits below an acknowledged mutation, so durable and acked > 0.
		why := "fabricated: no step writes this value"
		var last mutation
		if acked > 0 {
			last = h[acked-1]
		}
		switch i, rejected := writerOf(sc, key, got); {
		case !present:
			why = fmt.Sprintf("lost: step %d's put was acknowledged", last.step)
		case i < 0:
		case rejected:
			why = fmt.Sprintf("rejected step %d leaked", i)
		case i > inflight:
			why = fmt.Sprintf("step %d was never issued", i)
		case last.Delete:
			why = fmt.Sprintf("resurrected: step %d's delete was acknowledged", last.step)
		default:
			why = fmt.Sprintf("stale: step %d's put was acknowledged", last.step)
		}
		state := "<absent>"
		if present {
			state = fmt.Sprintf("%q", got)
		}
		out = append(out, fmt.Sprintf("key %q: recovered %s, %s (durable=%v, inflight step %d)",
			key, state, why, durable, inflight))
	}

	torn := make(map[int]bool)
	for moved := atomic; moved; {
		moved = false
		for i, s := range issued {
			if s.Reject || len(s.Muts) < 2 || torn[i] {
				continue
			}
			// at is the step's position in a key's history: a smaller
			// position explains the key with the step unapplied.
			at := func(key string) int {
				for p, m := range hist[key] {
					if m.step == i {
						return p + 1
					}
				}
				return 0
			}
			onlyBefore, onlyAfter := "", ""
			for _, m := range s.Muts {
				ps, a := positions[m.Key], at(m.Key)
				if len(ps) == 0 {
					continue
				}
				switch before, after := ps[0] < a, ps[len(ps)-1] >= a; {
				case before && !after:
					onlyBefore = m.Key
				case after && !before:
					onlyAfter = m.Key
				}
			}
			if onlyBefore != "" && onlyAfter != "" {
				torn[i] = true
				out = append(out, fmt.Sprintf("step %d half-applied: key %q recovered from before it, key %q from after it (inflight step %d)",
					i, onlyBefore, onlyAfter, inflight))
				continue
			}
			if onlyBefore == "" && onlyAfter == "" {
				continue
			}
			for _, m := range s.Muts {
				keep, a := positions[m.Key][:0], at(m.Key)
				for _, p := range positions[m.Key] {
					if (p >= a) == (onlyAfter != "") {
						keep = append(keep, p)
					}
				}
				moved = moved || len(keep) < len(positions[m.Key])
				positions[m.Key] = keep
			}
		}
	}
	return out
}

// writerOf finds the step that puts value to key (-1 if none does) and
// whether that step is a scripted rejection.
func writerOf(sc *Script, key, value string) (step int, rejected bool) {
	for i, s := range sc.Steps {
		for _, m := range s.Muts {
			if m.Key == key && !m.Delete && m.Value == value {
				return i, s.Reject
			}
		}
	}
	return -1, false
}
