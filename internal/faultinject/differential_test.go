package faultinject

import (
	"testing"

	"cachekv/internal/hw/cache"
)

// deleteBetween reports whether sc issues a delete of key with step index in
// (after, bound].
func deleteBetween(sc *Script, key string, after, bound int) bool {
	for i := after + 1; i <= bound && i < len(sc.Steps); i++ {
		for _, m := range sc.Steps[i].Muts {
			if m.Delete && m.Key == key {
				return true
			}
		}
	}
	return false
}

// TestDomainDifferentialRecovery crashes NoveLSM and SLM-DB at the same
// event indices under ADR and eADR and compares the recovered states. The
// paper's claim is directional: persistent caches can only *add* durability.
// For every key the ADR run recovers, the eADR run must hold a state at
// least as fresh (a put with an index >= the ADR one), and a key absent
// under eADR but present under ADR is legal only when a later issued delete
// explains the absence.
func TestDomainDifferentialRecovery(t *testing.T) {
	engines := []string{"novelsm", "slm-db"}
	if !testing.Short() {
		engines = append(engines, "novelsm-w/o-flush", "slm-db-w/o-flush")
	}
	fam := singleKeyFamily(5, 200)
	sc := &fam.Script
	for _, name := range engines {
		spec, ok := FindEngine(name)
		if !ok {
			t.Fatalf("unknown engine %q", name)
		}
		totalA, hashA, err := Count(spec, cache.ADR, fam)
		if err != nil {
			t.Fatal(err)
		}
		totalE, hashE, err := Count(spec, cache.EADR, fam)
		if err != nil {
			t.Fatal(err)
		}
		// The engine must not branch on the domain: identical event streams
		// are what make "the same crash point" meaningful across domains.
		if totalA != totalE || hashA != hashE {
			t.Fatalf("%s: event stream differs across domains: (%d, %#x) vs (%d, %#x)",
				name, totalA, hashA, totalE, hashE)
		}

		points := []int64{1, totalA / 4, totalA / 2, 3 * totalA / 4, totalA}
		if !testing.Short() {
			rng := newSampleRNG(11, name, cache.ADR, FaultNone)
			for i := 0; i < 5; i++ {
				points = append(points, 1+int64(rng.Uint64n(uint64(totalA))))
			}
		}
		for _, k := range points {
			ra := Run(spec, cache.ADR, fam, k, FaultNone, nil)
			re := Run(spec, cache.EADR, fam, k, FaultNone, nil)
			if err := ra.Err(); err != nil {
				t.Errorf("%v", err)
				continue
			}
			if err := re.Err(); err != nil {
				t.Errorf("%v", err)
				continue
			}
			if ra.Inflight != re.Inflight {
				t.Errorf("%s crashAt=%d: in-flight op differs across domains: %d vs %d",
					name, k, ra.Inflight, re.Inflight)
				continue
			}
			for key, av := range ra.Recovered {
				ai, _ := writerOf(sc, key, av)
				if ai < 0 {
					t.Errorf("%s crashAt=%d: ADR recovered value %q for %q, which no step writes", name, k, av, key)
					continue
				}
				ev, present := re.Recovered[key]
				if present {
					if ei, _ := writerOf(sc, key, ev); ei < ai {
						t.Errorf("%s crashAt=%d: eADR recovered OLDER state for %q: put %d vs ADR's put %d",
							name, k, key, ei, ai)
					}
					continue
				}
				if !deleteBetween(sc, key, ai, re.Inflight) {
					t.Errorf("%s crashAt=%d: key %q present under ADR (put %d) but lost under eADR with no later delete",
						name, k, key, ai)
				}
			}
		}
	}
}
