package bench

import (
	"fmt"

	"cachekv/internal/engines"
	"cachekv/internal/hw"
)

// The systems and sweeps of the figures.
var (
	all       = engines.All()
	baselines = engines.Baselines()
	// Figures 12 and 13 compare CacheKV with the vanilla and -cache baselines.
	five = []engines.Kind{engines.NoveLSM, engines.NoveLSMCache, engines.SLMDB, engines.SLMDBCache, engines.CacheKV}

	sizes4          = []int{32, 64, 128, 256} // value sizes of Figure 4
	sizes10         = []int{16, 64, 128, 256} // value sizes of Figures 10 and 11
	baselineThreads = []int{1, 2, 4, 8}
	breakdownAt     = []int{2, 8}
	userThreads12   = []int{4, 8, 16, 24}
	userThreads14   = []int{2, 4, 6}
	flushThreads    = []int{1, 2, 4, 6}
	tableMiB        = []float64{0.25, 0.5, 1, 2}
	poolMiB         = []uint64{3, 6, 12, 24, 30}
	recoveryOps     = []int64{10_000, 50_000, 200_000}
)

// labels renders each value of a sweep with format, after any fixed labels.
func labels[T any](format string, vals []T, fixed ...string) []string {
	for _, v := range vals {
		fixed = append(fixed, fmt.Sprintf(format, v))
	}
	return fixed
}

// cellOf is a cell on the testbed platform sized for ops records of valueSize
// bytes (key 16 B + headers/padding), CacheKV with one flush thread: the
// paper does not state Exp#1-#4's flush-thread count, so the figures keep the
// one they have always run. Fig 14 sweeps it; Figs 15 and 16 set four.
func cellOf(kind engines.Kind, ops int64, valueSize int, phases ...Phase) Cell {
	return Cell{kind, EngineConfig{DataBytes: uint64(ops) * uint64(valueSize+40), FlushThreads: 1}, phases}
}

// fill writes ops records of valueSize bytes, keys drawn from keys.
func fill(name string, keys KeyGen, ops int64, threads, valueSize int, seed uint64) Phase {
	return workload(Workload{Name: name, Keys: keys, ValueSize: valueSize, Ops: ops, Threads: threads, Mix: WriteOnly, Seed: seed})
}

// fillRandom loads ops uniform-random records of the given value size.
func fillRandom(ops int64, threads, valueSize int) Phase {
	return fill("fillrandom", UniformKeys{N: ops}, ops, threads, valueSize, 7)
}

// read issues ops Gets of keys drawn from keys.
func read(name string, keys KeyGen, ops int64, threads, valueSize int) Phase {
	return workload(Workload{Name: name, Keys: keys, ValueSize: valueSize, Ops: ops, Threads: threads, Mix: ReadOnly, Seed: 13})
}

// warmThenMeasure is the Figure 4 workload: the first half of the ops warms
// the cache past capacity so the measured half sees steady-state eviction
// traffic, the regime ipmwatch observes during the paper's 10M-op runs.
func warmThenMeasure(kind engines.Kind, ops int64, valueSize int) Cell {
	return cellOf(kind, ops, valueSize, fillRandom(ops/2, 1, valueSize),
		fill("measure", UniformKeys{N: ops}, ops/2, 1, valueSize, 17))
}

// fillThenRead is a random fill of 64 B values, then as many random reads,
// both by the same number of threads.
func fillThenRead(kind engines.Kind, ops int64, threads int) Cell {
	return cellOf(kind, ops, 64, fillRandom(ops, threads, 64), read("readrandom", UniformKeys{N: ops}, ops, threads, 64))
}

// poolCell is the Figure 15 and 16 run: fillThenRead on CacheKV with 12 user
// and 4 flush threads and the given pool geometry.
func poolCell(ops int64, poolBytes, tableBytes uint64) Cell {
	cell := fillThenRead(engines.CacheKV, ops, 12)
	cell.Config.PoolBytes, cell.Config.SubMemTableBytes, cell.Config.FlushThreads = poolBytes, tableBytes, 4
	return cell
}

// singleThread is a Figure 10 or 11 panel: every system at four value sizes,
// one thread, a fill drawn from keys and, for Figure 11, as many reads of the
// same distribution.
func singleThread(title, note string, keys func(ops int64) KeyGen, thenRead bool) Panel {
	return Panel{Title: title, Note: note, Header: labels("%dB", sizes10, "system"), Rows: labels("%s", all),
		Metrics: []Metric{lastKops},
		Cell: func(ops int64, r, c int) Cell {
			cell := cellOf(all[r], ops, sizes10[c], fill("fill", keys(ops), ops, 1, sizes10[c], 11))
			if thenRead {
				cell.Phases = append(cell.Phases, read("read", keys(ops), ops, 1, sizes10[c]))
			}
			return cell
		}}
}

func sequential(int64) KeyGen  { return SequentialKeys{} }
func uniform(ops int64) KeyGen { return UniformKeys{N: ops} }

// share is the percentage of the only phase's write latency spent in p.
func share(p hw.Phase) Metric {
	return Metric{func(res []Result) float64 { return res[0].Breakdown.Fraction(p) * 100 }, "%.1f%%"}
}

// last is a metric of the measured — last — phase.
func last(read func(Result) float64, format string) Metric {
	return Metric{func(res []Result) float64 { return read(res[len(res)-1]) }, format}
}

// Throughput of the last phase, and of the first — every cell's fill.
var (
	lastKops = last(func(r Result) float64 { return r.KopsPerSec }, "%.1f")
	fillKops = Metric{func(res []Result) float64 { return res[0].KopsPerSec }, "%.1f"}
)

// Figures is the one list of what cmd/experiments regenerates, in print order.
var Figures = []Figure{
	{ID: "4", Summary: "Ob1: XPBuffer write hit ratio of the baselines", Panels: []Panel{{
		Title:  "Figure 4 - Ob1: XPBuffer write hit ratio (random writes, 1 thread)",
		Note:   "%d ops per cell; higher is better",
		Header: labels("%dB", sizes4, "system"), Rows: labels("%s", baselines),
		Cell:    func(ops int64, r, c int) Cell { return warmThenMeasure(baselines[r], ops, sizes4[c]) },
		Metrics: []Metric{last(func(r Result) float64 { return r.HW.WriteHitRatio() * 100 }, "%.1f%%")},
	}}},
	{ID: "5", Summary: "Ob2: baseline thread scaling + NoveLSM-cache latency breakdown", Panels: []Panel{{
		Title:  "Figure 5(a) - Ob2: write throughput vs user threads (Kops/s, 64B values)",
		Note:   "%d ops per cell",
		Header: labels("%d", baselineThreads, "system"), Rows: labels("%s", baselines),
		Cell: func(ops int64, r, c int) Cell {
			return cellOf(baselines[r], ops, 64, fillRandom(ops, baselineThreads[c], 64))
		},
		Metrics: []Metric{fillKops},
	}, {
		Title:  "Figure 5(b) - Ob2: NoveLSM-cache write latency breakdown",
		Header: []string{"threads", "index", "lock", "append", "flush", "wal", "others"}, Rows: labels("%d", breakdownAt),
		Cell: func(ops int64, r, _ int) Cell {
			return cellOf(engines.NoveLSMCache, ops, 64, fillRandom(ops, breakdownAt[r], 64))
		},
		Metrics: []Metric{share(hw.PhaseIndex), share(hw.PhaseLock), share(hw.PhaseAppend),
			share(hw.PhaseFlushInstr), share(hw.PhaseWAL), share(hw.PhaseOther)},
	}}},
	{ID: "10", Summary: "Exp#1: sequential/random write throughput, all systems", Panels: []Panel{
		singleThread("Figure 10(a) - Exp#1: sequential write throughput", "%d ops per cell, 1 thread (Kops/s)", sequential, false),
		singleThread("Figure 10(b) - Exp#1: random write throughput", "%d ops per cell, 1 thread (Kops/s)", uniform, false),
	}},
	{ID: "11", Summary: "Exp#2: sequential/random read throughput, all systems", Panels: []Panel{
		singleThread("Figure 11(a) - Exp#2: sequential read throughput", "%d reads per cell after an equal fill, 1 thread (Kops/s)", sequential, true),
		singleThread("Figure 11(b) - Exp#2: random read throughput", "%d reads per cell after an equal fill, 1 thread (Kops/s)", uniform, true),
	}},
	{ID: "12", Summary: "Exp#3: multi-thread random read/write throughput", Panels: []Panel{{
		Title:  "Figure 12(a) - Exp#3: random read throughput vs user threads (Kops/s)",
		Note:   "%d ops per cell, 64B values",
		Header: labels("%d", userThreads12, "system"), Rows: labels("%s", five),
		Cell:    func(ops int64, r, c int) Cell { return fillThenRead(five[r], ops, userThreads12[c]) },
		Metrics: []Metric{lastKops},
	}, {
		Title:  "Figure 12(b) - Exp#3: random write throughput vs user threads (Kops/s)",
		Note:   "%d ops per cell, 64B values",
		Header: labels("%d", userThreads12, "system"), Rows: labels("%s", five),
		Cell: func(ops int64, r, c int) Cell {
			return cellOf(five[r], ops, 64, fillRandom(ops, userThreads12[c], 64))
		},
		Metrics: []Metric{fillKops},
	}}},
	{ID: "13", Summary: "Exp#4: YCSB Load/A/B/C/D/F", YCSB: true, Panels: []Panel{{
		Title:  "Figure 13 - Exp#4: YCSB throughput (Kops/s, 1 thread, 16B keys / 64B values)",
		Note:   "%d records loaded, %d ops per workload",
		Header: labels("%s", YCSBAll, "system"), Rows: labels("%s", five),
		Cell: func(ops int64, r, c int) Cell {
			return cellOf(five[r], ops*2, 64, func(oc *openCell) (Result, error) {
				return RunYCSB(oc.Runner, YCSBAll[c], ops, ops, 1, 64)
			})
		},
		Metrics: []Metric{lastKops},
	}}},
	{ID: "14", Summary: "Exp#5: CacheKV vs background flush threads", Trials: 3, Panels: []Panel{{
		Title:  "Figure 14 - Exp#5: CacheKV write throughput vs background flush threads (Kops/s)",
		Note:   "%d random 64B writes per cell",
		Header: labels("%d-flush", flushThreads, "user-threads"), Rows: labels("%d", userThreads14),
		Cell: func(ops int64, r, c int) Cell {
			cell := cellOf(engines.CacheKV, ops, 64, fillRandom(ops, userThreads14[r], 64))
			cell.Config.FlushThreads = flushThreads[c]
			return cell
		},
		Metrics: []Metric{fillKops},
	}}},
	// Figures 15 and 16 are only meaningful when the data set dwarfs the pool
	// (12 MiB; up to 30 MiB), as the paper's 10M-op runs do: steady state, not
	// a fits-in-pool burst.
	{ID: "15", Summary: "Exp#6: CacheKV vs sub-MemTable size", MinOps: 400_000, Trials: 3, Panels: []Panel{{
		Title:  "Figure 15 - Exp#6: CacheKV throughput vs sub-MemTable size (Kops/s)",
		Note:   "12MB pool, 12 user threads, 4 flush threads, %d ops",
		Header: []string{"size", "readrandom", "fillrandom"}, Rows: labels("%.2fMB", tableMiB),
		Cell:    func(ops int64, r, _ int) Cell { return poolCell(ops, 12<<20, uint64(tableMiB[r]*(1<<20))) },
		Metrics: []Metric{lastKops, fillKops},
	}}},
	{ID: "16", Summary: "Exp#7: CacheKV vs pool size", MinOps: 400_000, Trials: 2, Panels: []Panel{{
		Title:  "Figure 16 - Exp#7: CacheKV throughput vs sub-MemTable pool size (Kops/s)",
		Note:   "1MB sub-MemTables, 12 user threads, 4 flush threads, %d ops",
		Header: []string{"pool", "readrandom", "fillrandom"}, Rows: labels("%dMB", poolMiB),
		Cell:    func(ops int64, r, _ int) Cell { return poolCell(ops, poolMiB[r]<<20, 1<<20) },
		Metrics: []Metric{lastKops, fillKops},
	}}},
	// Not a numbered paper figure: the "write amplification ratio" the paper's
	// footnote 3 describes as the complement of the write hit ratio, under the
	// Figure 4 workload — Ob1 in bytes rather than percentages.
	{ID: "wa", Summary: "extension: PMem write amplification of every system", Panels: []Panel{{
		Title:  "Extension - PMem write amplification (random 64B writes, 1 thread)",
		Note:   "%d ops per cell; media bytes written per byte stored (lower is better)",
		Header: []string{"system", "write-amp", "media-MiB"}, Rows: labels("%s", all),
		Cell: func(ops int64, r, _ int) Cell { return warmThenMeasure(all[r], ops, 64) },
		Metrics: []Metric{last(func(r Result) float64 { return r.HW.WriteAmplification() }, "%.2fx"),
			last(func(r Result) float64 { return float64(r.HW.MediaWriteB >> 20) }, "%.0f")},
	}}},
	// Section III-E: the virtual time CacheKV takes to rebuild the DRAM
	// sub-skiplists and the active-key table from what the persistent
	// sub-MemTable pool and ImmZone held at the crash, then 200 reads to
	// confirm the recovered store serves data. The rows fix their own op counts.
	{ID: "recovery", Summary: "extension: CacheKV crash-recovery time", Panels: []Panel{{
		Title:  "Extension - CacheKV crash-recovery time vs resident data",
		Note:   "virtual milliseconds to reopen after power failure (64B values)",
		Header: []string{"ops-before-crash", "recovery-ms", "recovered-reads-ok"}, Rows: labels("%d", recoveryOps),
		Cell: func(_ int64, r, _ int) Cell {
			ops := recoveryOps[r]
			return cellOf(engines.CacheKV, ops, 64, fillRandom(ops, 4, 64), powerCut, read("probe", UniformKeys{N: ops}, 200, 1, 64))
		},
		Metrics: []Metric{{func(res []Result) float64 { return float64(res[1].ElapsedNs) / 1e6 }, "%.2f"},
			last(func(r Result) float64 { return float64(r.Ops - r.NotFound) }, "%.0f/200")},
	}}},
}
