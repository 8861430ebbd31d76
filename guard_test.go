package cachekv

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// CI once ran a grep guard of 37 lines over the tree. The architecture and
// doc tests replace it: each of its patterns is planted here once, and the
// test that now refuses it must refuse the plant. A plant is also held to
// the guard's own pattern, so it is an instance of what the guard refused.

// guardPlants: per guard line, its pattern (as grep read it), where the plant
// goes (a Go file, or "doc" for a covered doc), the plant, and the
// architecture rule that refuses it ("" for the doc test).
var guardPlants = []struct {
	line        int
	guard, file string
	plant, rule string
}{
	{380, `WithDeadline|ShapeLegacyWrites|quiesceSpills`,
		"internal/core/plant.go", "package core\n\nvar _ = ctx.WithDeadline\n",
		"one write path: no per-op deadline twin, write-shaping knob or inline compaction drain"},
	{381, `\b(RunBatchSchedule|RunStallSchedule|SweepCrossShard|OpenTraced|GroupCommitWindow|GroupCommitMaxOps|DebugTimers|DbgCopy)`,
		"internal/faultinject/plant.go", "package faultinject\n\nfunc RunBatchSchedule() {}\n",
		"one crash-schedule runner: no per-family harness, traced-open twin, group-commit knob or debug hook"},
	{382, `\b(OpenSharded|ShardedOptions|FlowThresholds|SharedSeq|SharedPartition|RegionPrefix|BlockCacheShards)\b`,
		"internal/core/plant.go", "package core\n\nfunc OpenSharded() {}\n",
		"one constructor: no sharded twin, threshold table or sharding option nothing set"},
	{383, `\b(checkBatchOracle|checkStallOracle|BatchWorkload|StallWorkload|NewBatchWorkload|NewStallWorkload|BatchValue|StallValue)\b`,
		"internal/faultinject/plant.go", "package faultinject\n\nfunc checkStallOracle() {}\n",
		"one crash oracle: no per-family workload type or oracle"},
	{384, `\b(RunShardCurve|ShardCurve(Config|Point|Report)|ExtractRuns|bench_overload)\b|BENCH_[a-z]+\.json|-shard-out|-obs-out|baselines/ycsb-c`,
		"internal/bench/plant.go", "package bench\n\nconst out = \"BENCH_readpath.json\"\n",
		"the ledger is the only perf record: no committed bench artifact or shard-curve suite"},
	{385, `\b(EngineKind|ParseEngine|BaselineEngines|rangeDeleter|ingester)\b|BenchmarkFig[0-9]|experiments_output`,
		"internal/engines/plant.go", "package engines\n\ntype EngineKind int\n",
		"one engine catalogue and one figure registry: no engine enum, parser or per-figure benchmark"},
	{386, `\bDecodeEntry\b`,
		"internal/kvstore/plant.go", "package kvstore\n\nfunc DecodeEntry() {}\n",
		"ViewEntry is the one decoder of sub-MemTable entries"},
	{387, `\.\(interface`,
		"internal/core/plant.go", "package core\n\nfunc f(x any) { _, _ = x.(interface{ Stats() int }) }\n",
		"no anonymous interface assertion in non-test code"},
	{388, `\b(hashIndex|hashTable|newHashIndex|mergeInto|mergeTable|compactInto)\b`,
		"internal/core/plant.go", "package core\n\ntype hashIndex struct{}\n",
		"one memory-component index: no hash index or per-table merge"},
	{389, `map\[uint64\]\*(line|xpEntry)|statMu`,
		"internal/hw/cache/plant.go", "package cache\n\nvar lines map[uint64]*line\n",
		"internal/hw has no line maps and no statMu outside *_ref_test.go"},
	{390, `\bUserScan\(|\) NewIterator\(th`,
		"internal/lsm/plant.go", "package lsm\n\nfunc (t *Tree) NewIterator(th *hw.Thread) {}\n",
		"one scan merge: no UserScan and no per-call tree iterator"},
	{391, `container/heap`,
		"internal/lsm/plant.go", "package lsm\n\nimport _ \"container/heap\"\n",
		"internal/lsm has no container/heap"},
	{392, `cmd/(cachekv-bench|ycsb|obsdiff)\b|cachekv-bench\b|\bobsdiff\b|cachekv\.obs/v1|\b(EnableProfiler|VerifyProfiles|WriteFolded|ProfileStepNs|SetProfile|LoadReport|NewReport|DiffRuns|RunIngest|SetName)\b`,
		"cmd/experiments/plant.go", "package main\n\n// Compare two runs with go run ./cmd/obsdiff.\nfunc compare() {}\n",
		"four commands and one report format: no second load generator, report file or profiler"},
	{393, `\b(flushCh|syncCh|compactCh|spillCh|spillState|StartScheduler|StopScheduler|AbortScheduler|SchedulerConfig)\b`,
		"internal/core/plant.go", "package core\n\nvar flushCh chan int\n",
		"bgpool runs every background job: no hand-rolled loop or lsm scheduler"},
	{394, `\bHalter\b|\.Halt\(`,
		"internal/kvstore/plant.go", "package kvstore\n\ntype Halter interface{ Halt() }\n",
		"Close is the only stop: no Halt method or Halter probe"},
	{395, `func \(db \*DB\) (Scan|FlushAll|Close|release|flushOne|zeroLogHead)\b|type flushJob|newTableIter`,
		"internal/baseline/novelsm/plant.go", "package novelsm\n\nfunc (db *DB) Scan() {}\n",
		"one baseline store: NoveLSM and SLM-DB keep no flush, scan or close path of their own"},
	{396, `\bRegisterKV\b|blockCacheStatser|filterStatser|ObsRegistrar`,
		"internal/core/plant.go", "package core\n\nfunc RegisterKV() {}\n",
		"RegisterObs publishes a store's counters: no RegisterKV or statistics probe"},
	{397, `\b(shardWriter|writeReq|newWriteReq|submitAndWait|commitGroup|WriterCore|groupCommitWindowNs|groupCommitMaxOps)\b|group_commit`,
		"internal/core/plant.go", "package core\n\ntype shardWriter struct{}\n",
		"a write commits on the caller's core: no group commit"},
	{398, `\bglobalFilter\b|\bmaxUserKey\b|\baddrIter\b|\bFinger\b`,
		"internal/core/plant.go", "package core\n\nvar globalFilter int\n",
		"a Get probes the active-key table once: no negative filter, key fence, address source or finger"},
	{399, `immArena\.Alloc|spillLocked|NTWrite`,
		"internal/core/recovery.go", "package core\n\nfunc f(e *Engine) { e.spillLocked() }\n",
		"recovery.go has no goroutine, WaitGroup, ImmZone alloc, spill, NT store, raw PMem.Read or snapshotInto"},
	{400, `\bgo func\b|\bgo e\.|sync\.WaitGroup`,
		"internal/core/recovery.go", "package core\n\nfunc f() { go func() {}() }\n",
		"recovery.go has no goroutine, WaitGroup, ImmZone alloc, spill, NT store, raw PMem.Read or snapshotInto"},
	{401, `PMem\.Read|snapshotInto`,
		"internal/core/recovery.go", "package core\n\nfunc f(e *Engine) { e.m.PMem.Read(0, nil) }\n",
		"recovery.go has no goroutine, WaitGroup, ImmZone alloc, spill, NT store, raw PMem.Read or snapshotInto"},
	{402, `\bDebugUnforceFlowState\b`,
		"internal/core/plant.go", "package core\n\nfunc (sh *Sharded) DebugUnforceFlowState() {}\n",
		"core's tests release a flow pin with forceOff: no exported debug hook"},
	{403, `\b(DisableElastic|PoolMB|ImmZoneMB|FSMB|TableSizeKB|L0Trigger|BaseLevelMB|BlockCacheMB)\b`,
		"plant.go", "package cachekv\n\nvar _ = Options{}.BlockCacheMB\n",
		"cachekv.Options holds no retired knob"},
	{404, `\b(SyncThreshold|FilterBitsPerKey)\b`,
		"cachekv.go", "package cachekv\n\ntype Options struct{ SyncThreshold int }\n",
		"SyncThreshold and FilterBitsPerKey are not public options"},
	{405, `\b(FilterBitsPerKey|newFilter|expectedSlotKeys)\b`,
		"internal/core/plant.go", "package core\n\nfunc newFilter() {}\n",
		"the active-key table replaced the per-slot memory-component filters"},
	{406, `Options\.(SyncThreshold|FilterBitsPerKey)\b`,
		"doc", "Set `cachekv.Options.SyncThreshold` to sync sooner.\n", ""},
	{407, `\b(defaultFlushThreads|DisableFlowControl|FlowStats|FlowSignals)\b`,
		"benchmark/plant.go", "package main\n\nfunc FlowStats() {}\n",
		"one flush-thread default and one read-out of the flow counters"},
	{408, `\b(twoPC|newTwoPC|twoPCLogBytes|encodePrepare|decodePrepare|encodeCommit|decodeCommit)\b|cachekv\.2pc\.commit`,
		"internal/core/plant.go", "package core\n\nconst commitLog = \"cachekv.2pc.commit\"\n",
		"a cross-shard batch commits through one batch-log record"},
	{409, `WriteSlowOpsJSONL|PerOpNs|DefaultSlowOp|func \(m Metrics\) Sub|func \(c \*Collector\) Merge|StallSlowdowns|WritesRejected|BlockCacheHitRatio|\) SlowOps\(\) \[\]obs\.Dossier`,
		"plant.go", "package cachekv\n\nfunc (db *DB) SlowOps() []obs.Dossier { return nil }\n",
		"each number has one read-out: no Metrics mirror, collector merge, DB.SlowOps or policy knob"},
	{410, `\bElastic\b`,
		"internal/core/plant.go", "package core\n\nvar Elastic bool\n",
		"sub-MemTable elasticity is always on: core has no switch for it"},
	{411, `\bflushBufs\b|Workers: o\.FlushThreads`,
		"internal/core/plant.go", "package core\n\nfunc f(o Options) any { return bgpool.Config{Workers: o.FlushThreads} }\n",
		"one host worker feeds the flush servers: no worker or buffer per server"},
	{412, `\b(requestSync|syncJob|pendingSyncs)\b`,
		"internal/core/plant.go", "package core\n\nfunc (e *Engine) requestSync() {}\n",
		"every lazy sync runs where it fires: no sync queue"},
	{413, `\b(mergeJob|runMerge)\b|\be\.merges\b|\.compacted\b`,
		"internal/core/plant.go", "package core\n\nfunc f(e *Engine) { e.merges++ }\n",
		"no merge kind: no merge job, merge run or merged mark"},
	{414, `\b(spillJob|waitForSpace|Lossy)\b|flush_stall`,
		"internal/core/plant.go", "package core\n\nconst stallEvent = \"flush_stall\"\n",
		"the flush that fills the ImmZone spills it: no spill kind"},
	{415, `\b(compactJob|WaitSettled|Coalesce|LastDone)\b|\be\.compacts\b|Abandon:`,
		"internal/core/plant.go", "package core\n\nfunc (e *Engine) WaitSettled() {}\n",
		"compaction runs where its debt is made: no compact kind"},
	{416, `LoadRaw`,
		"internal/core/plant.go", "package core\n\nfunc (e *Engine) peek() { e.m.PMem.LoadRaw(0, nil) }\n",
		"non-test internal/core has no LoadRaw except snapIter's"},
}

// plantFile writes text to a fresh temporary file and reads it back.
func plantFile(t *testing.T, name, text string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), filepath.Base(name))
	if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func ruleNamed(t *testing.T, name string) archRule {
	t.Helper()
	for _, r := range archRules {
		if r.name == name {
			return r
		}
	}
	t.Fatalf("no architecture rule %q", name)
	return archRule{}
}

func TestGuardPlantsAreRefused(t *testing.T) {
	if len(guardPlants) != 37 {
		t.Fatalf("%d plants for the guard's 37 lines", len(guardPlants))
	}
	tree, docs := loadRepo(t), loadDocs(t)
	for _, p := range guardPlants {
		t.Run(fmt.Sprintf("guard line %d", p.line), func(t *testing.T) {
			if !regexp.MustCompile(p.guard).MatchString(p.plant) {
				t.Fatalf("the plant %q is no instance of the guard's pattern", p.plant)
			}
			src := plantFile(t, p.file, p.plant)
			if p.rule == "" {
				if docFindings(docs.x, docs.heads, "plant.md", string(src)) == nil {
					t.Errorf("the doc test accepts %q", src)
				}
				return
			}
			planted, err := tree.with(p.file, src)
			if err != nil {
				t.Fatal(err)
			}
			if ruleNamed(t, p.rule).check(planted) == nil {
				t.Errorf("rule %q accepts %s holding %q", p.rule, p.file, src)
			}
		})
	}
}

// Each covered doc refuses a retired name or a section DESIGN.md does not
// have, planted in a copy of it.
func TestDocTestRefusesPlants(t *testing.T) {
	docs := loadDocs(t)
	for _, doc := range coveredDocs {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, cite := range []string{"`WaitSettled`", "`kvstore.Halter`", "`core.Options.Elastic`", "DESIGN §99"} {
			t.Run(doc+" "+cite, func(t *testing.T) {
				src := plantFile(t, doc, string(text)+"\nSee "+cite+".\n")
				found := false
				for _, f := range docFindings(docs.x, docs.heads, doc, string(src)) {
					found = found || strings.Contains(f, cite)
				}
				if !found {
					t.Errorf("a copy of %s citing %s passes the doc test", doc, cite)
				}
			})
		}
	}
}

// A public knob nothing sets fails the knob rule.
func TestKnobRuleRefusesAnUnsetField(t *testing.T) {
	tree := loadRepo(t)
	text, err := os.ReadFile("cachekv.go")
	if err != nil {
		t.Fatal(err)
	}
	const decl = "type Options struct {\n"
	if !strings.Contains(string(text), decl) {
		t.Fatal("cachekv.go declares no Options struct")
	}
	src := plantFile(t, "cachekv.go", strings.Replace(string(text), decl, decl+"\tScratchKnob int\n", 1))
	planted, err := tree.with("cachekv.go", src)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range checkPublicKnobs(planted) {
		found = found || strings.Contains(v, "ScratchKnob")
	}
	if !found {
		t.Error("an Options field no caller sets passes the knob rule")
	}
}
