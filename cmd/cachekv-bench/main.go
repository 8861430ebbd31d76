// Command cachekv-bench is the repository's db_bench equivalent: it runs the
// classic LevelDB benchmark suites (fillseq, fillrandom, readseq,
// readrandom, deleterandom) against any of the nine engines on the simulated
// eADR platform and reports virtual-time throughput, latency breakdowns, and
// the PMem hardware counters.
//
// Usage:
//
//	cachekv-bench -engine cachekv -benchmarks fillrandom,readrandom -num 1000000 -threads 4
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"cachekv/internal/bench"
	"cachekv/internal/engines"
	"cachekv/internal/hw"
	"cachekv/internal/obs"
)

func main() {
	engine := flag.String("engine", "cachekv", "engine: cachekv, pcsm, pcsm+liu, novelsm[-w/o-flush|-cache], slm-db[-w/o-flush|-cache]")
	benchmarks := flag.String("benchmarks", "fillseq,fillrandom,readrandom", "comma-separated benchmark list")
	num := flag.Int64("num", 200000, "operations per benchmark")
	threads := flag.Int("threads", 1, "user threads")
	valueSize := flag.Int("value-size", 64, "value size in bytes (keys are 16 B)")
	flushThreads := flag.Int("flush-threads", 0, "CacheKV background flush threads (0 = default)")
	poolMB := flag.Int("pool-mb", 0, "CacheKV sub-MemTable pool MiB (0 = default 12)")
	tableKB := flag.Int("table-kb", 0, "CacheKV sub-MemTable size KiB (0 = default 2048)")
	shards := flag.Int("shards", 0, "CacheKV engine shards (0 or 1 = classic single engine)")
	compactionWorkers := flag.Int("compaction-workers", 0, "CacheKV background compaction workers (0 = default (1))")
	profileOut := flag.String("profile-out", "", "write the virtual-time sampling profile (folded-stack text) here")
	profileStep := flag.Int64("profile-step", hw.DefaultProfileStep, "profiler sampling period in virtual ns")
	profileCheck := flag.Bool("profile-check", false, "verify profiler sample-conservation invariants after the run")
	slowopNs := flag.Int64("slowop-ns", 0, "arm slow-op dossier capture with this static threshold (virtual ns)")
	slowopsOut := flag.String("slowops-out", "", "write captured slow-op dossiers (JSONL) here (requires -slowop-ns)")
	flag.Parse()

	kind, err := engines.Parse(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	var cfg bench.EngineConfig
	cfg.DataBytes = uint64(*num) * uint64(*valueSize+40)
	if *flushThreads > 0 {
		cfg.FlushThreads = *flushThreads
	}
	if *poolMB > 0 {
		cfg.PoolBytes = uint64(*poolMB) << 20
	}
	if *tableKB > 0 {
		cfg.SubMemTableBytes = uint64(*tableKB) << 10
	}
	cfg.Shards = *shards
	cfg.CompactionWorkers = *compactionWorkers
	var tr *obs.Trace
	if *slowopNs > 0 {
		cfg.Obs = true
		tr = obs.NewTrace(obs.DefaultTraceCap)
		cfg.Trace = tr
	}
	if *profileOut != "" || *profileCheck {
		cfg.ProfileStepNs = *profileStep
	}
	m := cfg.NewMachine()
	th := m.NewThread(0)
	db, err := cfg.Open(kind, m, th)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	runner := bench.NewRunner(m, db)

	fmt.Printf("engine:     %s\n", db.Name())
	fmt.Printf("keys:       16 bytes each\n")
	fmt.Printf("values:     %d bytes each\n", *valueSize)
	fmt.Printf("entries:    %d\n", *num)
	fmt.Printf("threads:    %d\n", *threads)
	fmt.Println(strings.Repeat("-", 52))

	var allDossiers []obs.Dossier
	for _, name := range strings.Split(*benchmarks, ",") {
		name = strings.TrimSpace(name)
		if *slowopNs > 0 {
			runner.Col = obs.NewCollector() // fresh per phase: its dossiers are the phase's
			runner.Col.EnableSlowOps(obs.SlowOpPolicy{StaticNs: *slowopNs}, tr)
		}
		var res bench.Result
		var err error
		if name == "ingest" {
			// Bulk-load through the atomic SST ingest path, 128 entries/batch.
			batches := int(*num) / 128
			if batches < 1 {
				batches = 1
			}
			res, err = runner.RunIngest(th, batches, 128, *valueSize)
		} else {
			w, ok := makeWorkload(name, *num, *threads, *valueSize)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
				os.Exit(1)
			}
			res, err = runner.Run(w)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		if *slowopNs > 0 {
			allDossiers = append(allDossiers, runner.Col.SlowOps()...)
		}
		micros := float64(res.ElapsedNs) / 1000 / float64(res.Ops) * float64(res.Threads)
		fmt.Printf("%-12s : %8.3f micros/op; %10.1f Kops/s; p50 %.0fns p99 %.0fns",
			name, micros, res.KopsPerSec, res.Latency.Percentile(50), res.Latency.Percentile(99))
		if res.NotFound > 0 {
			fmt.Printf(" (%d of %d not found)", res.NotFound, res.Ops)
		}
		fmt.Println()
	}

	if err := runner.Settle(th); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	snap := m.PMem.Snapshot()
	fmt.Println(strings.Repeat("-", 52))
	fmt.Printf("XPBuffer write hit ratio : %.1f%%\n", snap.WriteHitRatio()*100)
	fmt.Printf("write amplification      : %.2fx\n", snap.WriteAmplification())
	fmt.Printf("media written            : %d MiB\n", snap.MediaWriteB>>20)
	if *slowopNs > 0 {
		fmt.Printf("slow-op dossiers         : %d captured (threshold %d ns)\n", len(allDossiers), *slowopNs)
		if bad := obs.VerifySlowOps(allDossiers); len(bad) > 0 {
			for _, v := range bad {
				fmt.Fprintf(os.Stderr, "slowop verify: %s\n", v)
			}
			os.Exit(1)
		}
		if *slowopsOut != "" {
			f, err := os.Create(*slowopsOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			enc := json.NewEncoder(f)
			for _, d := range allDossiers {
				if err := enc.Encode(d); err != nil {
					fmt.Fprintln(os.Stderr, err)
					os.Exit(1)
				}
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if err := db.Close(th); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *profileCheck {
		if bad := obs.VerifyProfiles(m); len(bad) > 0 {
			for _, v := range bad {
				fmt.Fprintf(os.Stderr, "profile verify: %s\n", v)
			}
			os.Exit(1)
		}
		fmt.Println("profile verify           : ok")
	}
	if *profileOut != "" {
		f, err := os.Create(*profileOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		entries := obs.Profiles(m)
		if err := obs.WriteFolded(f, entries); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("profile (folded stacks)  : %s (%d rows)\n", *profileOut, len(entries))
	}
}

func makeWorkload(name string, num int64, threads, valueSize int) (bench.Workload, bool) {
	w := bench.Workload{
		Name:      name,
		ValueSize: valueSize,
		Ops:       num,
		Threads:   threads,
		Seed:      7,
	}
	switch name {
	case "fillseq":
		w.Keys, w.Mix = bench.SequentialKeys{}, bench.WriteOnly
	case "fillrandom":
		w.Keys, w.Mix = bench.UniformKeys{N: num}, bench.WriteOnly
	case "readseq":
		w.Keys, w.Mix = bench.SequentialKeys{}, bench.ReadOnly
	case "readrandom":
		w.Keys, w.Mix = bench.UniformKeys{N: num}, bench.ReadOnly
	case "readzipf":
		w.Keys, w.Mix = bench.NewZipfian(num), bench.ReadOnly
	case "readwrite":
		w.Keys, w.Mix = bench.UniformKeys{N: num}, bench.Mix{PutFrac: 0.5}
	case "rangedel":
		// Write-heavy mix thinned by narrow range tombstones.
		w.Keys, w.Mix = bench.UniformKeys{N: num}, bench.Mix{PutFrac: 0.6, DeleteRangeFrac: 0.1}
	default:
		return w, false
	}
	return w, true
}
