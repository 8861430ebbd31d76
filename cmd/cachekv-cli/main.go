// Command cachekv-cli is a small interactive shell over the public API, for
// poking at a CacheKV instance by hand: puts, gets, deletes, range scans,
// simulated crashes, and hardware counters.
//
//	$ cachekv-cli
//	cachekv> put greeting hello
//	OK
//	cachekv> get greeting
//	hello
//	cachekv> crash
//	power failure simulated; store recovered
//	cachekv> get greeting
//	hello
//
// The non-interactive stats subcommand runs a small smoke workload and dumps
// the full metrics registry:
//
//	$ cachekv-cli stats [-json] [-engine cachekv] [-ops 2000]
//
// The slowops subcommand runs the same smoke workload with slow-op dossier
// capture armed and prints the forensic record of each outlier operation —
// where its time went per layer, its wait/busy split, and the trace events
// (flush, seal, compaction, stall) that overlapped it:
//
//	$ cachekv-cli slowops [-json] [-threshold-ns 20000] [-ops 2000]
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cachekv"
	"cachekv/internal/obs"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "stats" {
		os.Exit(statsCmd(os.Args[2:]))
	}
	if len(os.Args) > 1 && os.Args[1] == "slowops" {
		os.Exit(slowopsCmd(os.Args[2:]))
	}
	db, err := cachekv.Open(cachekv.Options{PMemMB: 1024})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	s := db.Session(0)
	fmt.Printf("%s on simulated eADR platform. Type 'help' for commands.\n", db.EngineName())

	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("cachekv> ")
		if !sc.Scan() {
			break
		}
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "help":
			fmt.Println("commands: put <k> <v> | get <k> | del <k> | scan <start> [n] | flush | crash | stats | metrics | trace [n] | slowops | quit")
		case "put":
			if len(fields) < 3 {
				fmt.Println("usage: put <key> <value>")
				continue
			}
			if err := s.Put([]byte(fields[1]), []byte(strings.Join(fields[2:], " "))); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("OK")
		case "get":
			if len(fields) != 2 {
				fmt.Println("usage: get <key>")
				continue
			}
			v, err := s.Get([]byte(fields[1]))
			if err == cachekv.ErrNotFound {
				fmt.Println("(not found)")
			} else if err != nil {
				fmt.Println("error:", err)
			} else {
				fmt.Println(string(v))
			}
		case "del":
			if len(fields) != 2 {
				fmt.Println("usage: del <key>")
				continue
			}
			if err := s.Delete([]byte(fields[1])); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("OK")
		case "scan":
			if len(fields) < 2 {
				fmt.Println("usage: scan <start> [limit]")
				continue
			}
			limit := 10
			if len(fields) > 2 {
				if n, err := strconv.Atoi(fields[2]); err == nil {
					limit = n
				}
			}
			n, err := s.Scan([]byte(fields[1]), limit, func(k, v []byte) bool {
				fmt.Printf("  %s = %s\n", k, v)
				return true
			})
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Printf("(%d entries)\n", n)
		case "flush":
			if err := db.Flush(); err != nil {
				fmt.Println("error:", err)
				continue
			}
			fmt.Println("flushed to storage component")
		case "crash":
			db2, err := db.SimulateCrash()
			if err != nil {
				fmt.Println("error:", err)
				continue
			}
			db = db2
			s = db.Session(0)
			fmt.Println("power failure simulated; store recovered")
		case "stats":
			m := db.Metrics()
			fmt.Printf("write hit ratio: %.1f%%  amplification: %.2fx  media written: %d KiB\n",
				m.WriteHitRatio*100, m.WriteAmplification, m.MediaWriteBytes>>10)
			fmt.Printf("filter probes: %d  negatives: %d  block cache: %d hit / %d miss (%.1f%%)\n",
				m.FilterProbes, m.FilterNegatives,
				m.BlockCacheHits, m.BlockCacheMisses, m.BlockCacheHitRatio*100)
			fmt.Printf("session virtual time: %.3f ms\n", float64(s.VirtualNanos())/1e6)
		case "metrics":
			db.Registry().Gather().WriteText(os.Stdout)
		case "trace":
			tr := db.Trace()
			if tr == nil {
				fmt.Println("observability disabled")
				continue
			}
			n := 10
			if len(fields) > 1 {
				if v, err := strconv.Atoi(fields[1]); err == nil {
					n = v
				}
			}
			evs := tr.Events()
			if len(evs) > n {
				evs = evs[len(evs)-n:]
			}
			for _, ev := range evs {
				b, _ := json.Marshal(ev)
				fmt.Println(string(b))
			}
		case "slowops":
			ds := db.SlowOps()
			if len(ds) == 0 {
				fmt.Println("(no slow ops captured)")
				continue
			}
			for _, d := range ds {
				printDossier(d)
			}
		case "quit", "exit":
			db.Close()
			return
		default:
			fmt.Printf("unknown command %q (try 'help')\n", fields[0])
		}
	}
	db.Close()
}

// statsCmd runs a deterministic smoke workload against a fresh store and
// dumps the metrics registry, as aligned text or (with -json) the sorted JSON
// snapshot the golden tests pin.
func statsCmd(args []string) int {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	engine := fs.String("engine", "cachekv", "engine to exercise")
	ops := fs.Int("ops", 2000, "smoke workload size")
	workers := fs.Int("compaction-workers", 0, "background compaction workers (0 = default (1))")
	asJSON := fs.Bool("json", false, "emit the snapshot as JSON (sorted by name)")
	fs.Parse(args)

	db, err := cachekv.Open(cachekv.Options{PMemMB: 1024, Engine: cachekv.Engine(*engine), CompactionWorkers: *workers})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer db.Close()
	s := db.Session(0)
	var key [16]byte
	val := []byte(strings.Repeat("v", 64))
	for i := 0; i < *ops; i++ {
		copy(key[:], fmt.Sprintf("key%013d", i%(*ops/2+1)))
		if i%4 == 3 {
			if _, err := s.Get(key[:]); err != nil && err != cachekv.ErrNotFound {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else if err := s.Put(key[:], val); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := db.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	snap := db.Registry().Gather()
	if *asJSON {
		b, err := snap.MarshalSorted()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(string(b))
		return 0
	}
	snap.WriteText(os.Stdout)
	return 0
}

// slowopsCmd runs the smoke workload with dossier capture armed and prints
// every captured slow op: threshold crossing, per-layer time, wait/busy split,
// flow-control state, and the trace events that overlapped its window.
func slowopsCmd(args []string) int {
	fs := flag.NewFlagSet("slowops", flag.ExitOnError)
	engine := fs.String("engine", "cachekv", "engine to exercise")
	ops := fs.Int("ops", 2000, "smoke workload size")
	thresholdNs := fs.Int64("threshold-ns", 0, "static capture threshold in virtual ns (0 = adaptive p99*8)")
	workers := fs.Int("compaction-workers", 0, "background compaction workers (0 = default (1))")
	asJSON := fs.Bool("json", false, "emit dossiers as JSONL instead of text")
	fs.Parse(args)

	db, err := cachekv.Open(cachekv.Options{
		PMemMB:            1024,
		Engine:            cachekv.Engine(*engine),
		CompactionWorkers: *workers,
		SlowOpThreshold:   *thresholdNs,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer db.Close()
	s := db.Session(0)
	var key [16]byte
	val := []byte(strings.Repeat("v", 64))
	for i := 0; i < *ops; i++ {
		copy(key[:], fmt.Sprintf("key%013d", i%(*ops/2+1)))
		if i%4 == 3 {
			if _, err := s.Get(key[:]); err != nil && err != cachekv.ErrNotFound {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		} else if err := s.Put(key[:], val); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if err := db.Flush(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ds := db.SlowOps()
	if bad := obs.VerifySlowOps(ds); len(bad) > 0 {
		for _, v := range bad {
			fmt.Fprintf(os.Stderr, "slowop verify: %s\n", v)
		}
		return 1
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for _, d := range ds {
			if err := enc.Encode(d); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
		return 0
	}
	if len(ds) == 0 {
		fmt.Println("no slow ops captured (try a lower -threshold-ns)")
		return 0
	}
	fmt.Printf("%d slow op(s) captured:\n", len(ds))
	for _, d := range ds {
		printDossier(d)
	}
	return 0
}

// printDossier renders one dossier for humans.
func printDossier(d obs.Dossier) {
	mode := "static"
	if d.Adaptive {
		mode = "adaptive"
	}
	fmt.Printf("#%d %-6s on %s (core %d): %d ns  [threshold %d ns, %s]\n",
		d.Seq, d.Op, d.Thread, d.Core, d.TotalNs, d.ThresholdNs, mode)
	fmt.Printf("   window v[%d..%d]  wait %d ns / busy %d ns", d.StartVNs, d.EndVNs, d.WaitNs, d.BusyNs)
	if d.FlowState != "" {
		fmt.Printf("  flow=%s", d.FlowState)
	}
	fmt.Println()
	for _, l := range d.Layers {
		fmt.Printf("   %-10s %10d ns\n", l.Layer, l.Ns)
	}
	for _, ev := range d.Events {
		b, _ := json.Marshal(ev.Attrs)
		fmt.Printf("   event @%-12d %-16s %s\n", ev.VNs, ev.Type, b)
	}
	if d.EventsTruncated {
		fmt.Println("   (event window truncated)")
	}
}
