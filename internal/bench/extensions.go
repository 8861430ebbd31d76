package bench

import (
	"fmt"

	"cachekv/internal/kvstore"
)

// WriteAmp is an extension experiment (not a numbered paper figure): the
// PMem-level write amplification — media bytes written per byte stored — of
// every system under the Figure 4 workload. It is the "write amplification
// ratio" the paper's footnote 3 describes as the complement of the write hit
// ratio, and makes Ob1 visible in bytes rather than percentages.
func WriteAmp(s Scale) (*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:   "Extension - PMem write amplification (random 64B writes, 1 thread)",
		Note:    fmt.Sprintf("%d ops per cell; media bytes written per byte stored (lower is better)", s.Ops),
		Headers: []string{"system", "write-amp", "media-MiB"},
	}
	for _, kind := range AllEngines {
		cfg := DefaultEngineConfig()
		cfg.DataBytes = dataBytes(s.Ops, 64)
		r, th, err := openRunner(cfg, kind)
		if err != nil {
			return nil, err
		}
		if _, err := fillRandom(r, s.Ops/2, 1, 64); err != nil {
			closeRunner(r, th)
			return nil, fmt.Errorf("writeamp warmup %s: %w", kind, err)
		}
		res, err := r.Run(Workload{
			Name: "measure", Keys: UniformKeys{N: s.Ops}, ValueSize: 64,
			Ops: s.Ops / 2, Threads: 1, Mix: WriteOnly, Seed: 17,
		})
		if err != nil {
			closeRunner(r, th)
			return nil, fmt.Errorf("writeamp %s: %w", kind, err)
		}
		t.AddRow(kind.String(),
			fmt.Sprintf("%.2fx", res.HW.WriteAmplification()),
			fmt.Sprintf("%d", res.HW.MediaWriteB>>20))
		closeRunner(r, th)
	}
	return t, nil
}

// Recovery is an extension experiment for Section III-E: virtual recovery
// time of CacheKV after a power failure, as a function of how much data sat
// in the (persistent) sub-MemTable pool and ImmZone at the crash. Recovery
// rebuilds the DRAM sub-skiplists and the global skiplist from the surviving
// bytes.
func Recovery(s Scale) (*Table, error) {
	s = s.withDefaults()
	t := &Table{
		Title:   "Extension - CacheKV crash-recovery time vs resident data",
		Note:    "virtual milliseconds to reopen after power failure (64B values)",
		Headers: []string{"ops-before-crash", "recovery-ms", "recovered-reads-ok"},
	}
	for _, ops := range []int64{10_000, 50_000, 200_000} {
		cfg := DefaultEngineConfig()
		cfg.DataBytes = dataBytes(ops, 64)
		m := cfg.NewMachine()
		th := m.NewThread(0)
		db, err := cfg.Open(CacheKV, m, th)
		if err != nil {
			return nil, err
		}
		r := NewRunner(m, db)
		if _, err := fillRandom(r, ops, 4, 64); err != nil {
			return nil, fmt.Errorf("recovery fill: %w", err)
		}
		db.(kvstore.Halter).Halt()
		m.Crash()
		_ = db.Close(th)
		m.Recover()

		rth := m.NewThread(0)
		reopened, err := cfg.Open(CacheKV, m, rth)
		if err != nil {
			return nil, fmt.Errorf("recovery reopen: %w", err)
		}
		recoveryMs := float64(rth.Clock.Now()) / 1e6

		// Sample reads to confirm the recovered store serves data.
		ok := 0
		probe := m.NewThread(1)
		var buf []byte
		for i := int64(0); i < 200; i++ {
			key := UniformKeys{N: ops}.Key(buf, i*37, nil)
			if _, err := reopened.Get(probe, key); err == nil {
				ok++
			}
		}
		t.AddRow(fmt.Sprintf("%d", ops), fmt.Sprintf("%.2f", recoveryMs), fmt.Sprintf("%d/200", ok))
		_ = reopened.Close(rth)
	}
	return t, nil
}
