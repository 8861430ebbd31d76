package cachekv

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"regexp/syntax"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The architecture rules: what the code must not grow back, checked on the
// parsed Go tree of the module (benchmark/ included, read only). Each rule is
// a subtest named by its reason; guard_test.go plants a violation of each.

// goTree is every Go file under a root, parsed with its comments, and the
// slash path of every file and directory there.
type goTree struct {
	fset  *token.FileSet
	files []*goFile
	paths []string
}

// goFile is one parsed Go file; rel is its slash path under the tree's root.
type goFile struct {
	rel string
	src []byte
	ast *ast.File
}

func (f *goFile) test() bool { return strings.HasSuffix(f.rel, "_test.go") }

// under reports whether the file lies in one of the directories.
func (f *goFile) under(dirs ...string) bool {
	for _, d := range dirs {
		if strings.HasPrefix(f.rel, d+"/") {
			return true
		}
	}
	return false
}

// skipDir reports whether a walk of the tree leaves a directory out: VCS
// and build state. The other dot-directories hold the CI workflow and the
// verify notes, which the docs cite by path.
func skipDir(name string) bool {
	return name == ".git" || name == ".bench_build"
}

// parseTree parses every Go file under root outside testdata directories.
func parseTree(root string) (*goTree, error) {
	t := &goTree{fset: token.NewFileSet()}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil || rel == "." {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() && skipDir(d.Name()) {
			return filepath.SkipDir
		}
		t.paths = append(t.paths, rel)
		if d.IsDir() || !strings.HasSuffix(rel, ".go") || strings.Contains("/"+rel, "/testdata/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return t.add(rel, src)
	})
	return t, err
}

// add parses src as the file at rel, replacing a file already there.
func (t *goTree) add(rel string, src []byte) error {
	f, err := parser.ParseFile(t.fset, rel, src, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		return err
	}
	for i, g := range t.files {
		if g.rel == rel {
			t.files[i] = &goFile{rel, src, f}
			return nil
		}
	}
	t.files = append(t.files, &goFile{rel, src, f})
	return nil
}

// with returns a copy of the tree with src as the file at rel.
func (t *goTree) with(rel string, src []byte) (*goTree, error) {
	c := &goTree{fset: t.fset, files: append([]*goFile(nil), t.files...), paths: t.paths}
	return c, c.add(rel, src)
}

// repoTree is the module's tree, parsed once for the doc and architecture
// tests.
var repoTree = sync.OnceValues(func() (*goTree, error) { return parseTree(".") })

func loadRepo(t *testing.T) *goTree {
	t.Helper()
	tree, err := repoTree()
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

// archRule is one architecture rule. A file in its scope may carry no
// identifier, string literal or comment that words matches, and no node that
// node refuses.
type archRule struct {
	name  string
	scope func(f *goFile) bool
	words *regexp.Regexp
	node  func(f *goFile, n ast.Node) bool
	// hint lists names one of which a file's source holds if node refuses
	// anything in it; nil when no name is needed.
	hint []string
}

// needles returns strings one of which a file's source holds if r refuses
// anything in it, or nil when any file may break r. A file without one is
// not walked: that keeps the rules to a fraction of a second.
func (r archRule) needles() []string {
	var ns []string
	if r.words != nil {
		re, err := syntax.Parse(r.words.String(), syntax.Perl)
		if err != nil {
			return nil
		}
		l, _ := literals(re)
		if l == nil {
			return nil
		}
		ns = append(ns, l...)
	}
	if r.node != nil {
		if r.hint == nil {
			return nil
		}
		ns = append(ns, r.hint...)
	}
	return ns
}

// literals returns strings one of which every match of re contains (nil
// when it cannot tell), and whether every match is one of them.
func literals(re *syntax.Regexp) (ss []string, exact bool) {
	switch re.Op {
	case syntax.OpLiteral:
		if re.Flags&syntax.FoldCase == 0 {
			return []string{string(re.Rune)}, true
		}
	case syntax.OpEmptyMatch, syntax.OpWordBoundary, syntax.OpBeginText, syntax.OpEndText, syntax.OpBeginLine, syntax.OpEndLine:
		return []string{""}, true
	case syntax.OpCapture:
		return literals(re.Sub[0])
	case syntax.OpPlus:
		l, _ := literals(re.Sub[0])
		return l, false
	case syntax.OpRepeat:
		if re.Min > 0 {
			l, _ := literals(re.Sub[0])
			return l, false
		}
	case syntax.OpConcat:
		// The product of a run of exact parts is exact; the best run or
		// inexact part is the one whose shortest string is longest.
		var best []string
		keep := func(l []string) {
			if l != nil && shortest(l) > 0 && (best == nil || shortest(l) > shortest(best)) {
				best = l
			}
		}
		run, exact := []string{""}, true
		for _, sub := range re.Sub {
			l, ex := literals(sub)
			if ex && len(run)*len(l) <= 64 {
				var next []string
				for _, a := range run {
					for _, b := range l {
						next = append(next, a+b)
					}
				}
				run = next
				continue
			}
			keep(run)
			keep(l)
			run, exact = []string{""}, false
			if ex {
				run = l
			}
		}
		keep(run)
		return best, exact && best != nil
	case syntax.OpAlternate:
		exact = true
		for _, sub := range re.Sub {
			l, ex := literals(sub)
			if l == nil || shortest(l) == 0 {
				return nil, false
			}
			ss, exact = append(ss, l...), exact && ex
		}
		return ss, exact
	}
	return nil, false
}

func shortest(ss []string) int {
	n := len(ss[0])
	for _, s := range ss {
		n = min(n, len(s))
	}
	return n
}

// mayBreak reports whether f's source holds one of the needles (all when
// there are none to hold).
func mayBreak(f *goFile, needles []string) bool {
	if needles == nil {
		return true
	}
	for _, n := range needles {
		if bytes.Contains(f.src, []byte(n)) {
			return true
		}
	}
	return false
}

// ruleFiles spell out what the rules refuse, so no rule reads them.
var ruleFiles = map[string]bool{"architecture_test.go": true, "guard_test.go": true}

// check returns one "file:line: text" per violation of r in the tree.
func (r archRule) check(tree *goTree) []string {
	var out []string
	report := func(pos token.Pos, what string) {
		out = append(out, fmt.Sprintf("%s: %s", tree.fset.Position(pos), what))
	}
	needles := r.needles()
	for _, f := range tree.files {
		if ruleFiles[f.rel] || !r.scope(f) || !mayBreak(f, needles) {
			continue
		}
		if r.words != nil {
			for _, g := range f.ast.Comments {
				for _, c := range g.List {
					if m := r.words.FindString(c.Text); m != "" {
						report(c.Pos(), m)
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			if n == nil {
				return false
			}
			if r.words != nil {
				var s string
				switch n := n.(type) {
				case *ast.Ident:
					s = n.Name
				case *ast.BasicLit:
					if n.Kind == token.STRING {
						s, _ = strconv.Unquote(n.Value)
					}
				}
				if m := r.words.FindString(s); m != "" {
					report(n.Pos(), m)
				}
			}
			if r.node != nil && r.node(f, n) {
				report(n.Pos(), fmt.Sprintf("%T", n))
			}
			return true
		})
	}
	return out
}

// Scopes. Most rules read every Go file but benchmark/'s, which is frozen and
// has its own module; a few read benchmark/ too.
func outsideBenchmark(f *goFile) bool { return !f.under("benchmark") }
func nonTest(f *goFile) bool          { return !f.test() && !f.under("benchmark") }
func everyGoFile(*goFile) bool        { return true }
func inDir(dir string, tests bool) func(*goFile) bool {
	return func(f *goFile) bool { return f.under(dir) && (tests || !f.test()) }
}

// lastName is the rightmost name of a selector chain, call or index
// expression: e.m.PMem → PMem, t.Registry() → Registry.
func lastName(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.Ident:
		return x.Name
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.CallExpr:
		return lastName(x.Fun)
	case *ast.IndexExpr:
		return lastName(x.X)
	case *ast.ParenExpr:
		return lastName(x.X)
	case *ast.StarExpr:
		return lastName(x.X)
	}
	return ""
}

// selects reports whether n is the selector x.sel with x's last name x
// ("" for any x).
func selects(n ast.Node, x, sel string) bool {
	s, ok := n.(*ast.SelectorExpr)
	return ok && s.Sel.Name == sel && (x == "" || lastName(s.X) == x)
}

// method reports whether n declares a method name on recv ("*T" or "T").
func method(n ast.Node, recv, name string) bool {
	d, ok := n.(*ast.FuncDecl)
	if !ok || d.Recv == nil || d.Name.Name != name {
		return false
	}
	return recvType(d) == recv
}

// recvType is a method's receiver type as written: "*T" or "T".
func recvType(d *ast.FuncDecl) string {
	switch x := d.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		return "*" + lastName(x.X)
	default:
		return lastName(x)
	}
}

// keyed reports whether n is a composite literal element key: value.
func keyed(n ast.Node, key string) bool {
	kv, ok := n.(*ast.KeyValueExpr)
	if !ok {
		return false
	}
	id, ok := kv.Key.(*ast.Ident)
	return ok && id.Name == key
}

// enclosing returns the function declaration of f that contains pos.
func enclosing(f *goFile, pos token.Pos) *ast.FuncDecl {
	for _, d := range f.ast.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd
		}
	}
	return nil
}

func words(alts string) *regexp.Regexp { return regexp.MustCompile(alts) }

// archRules are the rules. The names say why; CHANGES.md and DESIGN.md say
// what each retired surface was.
var archRules = []archRule{
	{
		name:  "one write path: no per-op deadline twin, write-shaping knob or inline compaction drain",
		scope: outsideBenchmark,
		words: words(`WithDeadline|ShapeLegacyWrites|quiesceSpills`),
	},
	{
		name:  "one crash-schedule runner: no per-family harness, traced-open twin, group-commit knob or debug hook",
		scope: outsideBenchmark,
		words: words(`\b(RunBatchSchedule|RunStallSchedule|SweepCrossShard|OpenTraced|GroupCommitWindow|GroupCommitMaxOps|DebugTimers|DbgCopy)`),
	},
	{
		name:  "one constructor: no sharded twin, threshold table or sharding option nothing set",
		scope: outsideBenchmark,
		words: words(`\b(OpenSharded|ShardedOptions|FlowThresholds|SharedSeq|SharedPartition|RegionPrefix|BlockCacheShards)\b`),
	},
	{
		name:  "one crash oracle: no per-family workload type or oracle",
		scope: outsideBenchmark,
		words: words(`\b(checkBatchOracle|checkStallOracle|BatchWorkload|StallWorkload|NewBatchWorkload|NewStallWorkload|BatchValue|StallValue)\b`),
	},
	{
		name:  "the ledger is the only perf record: no committed bench artifact or shard-curve suite",
		scope: outsideBenchmark,
		words: words(`\b(RunShardCurve|ShardCurve(Config|Point|Report)|ExtractRuns|bench_overload)\b|BENCH_[a-z]+\.json|-shard-out|-obs-out|baselines/ycsb-c`),
	},
	{
		name:  "one engine catalogue and one figure registry: no engine enum, parser or per-figure benchmark",
		scope: outsideBenchmark,
		words: words(`\b(EngineKind|ParseEngine|BaselineEngines|rangeDeleter|ingester)\b|BenchmarkFig[0-9]|experiments_output`),
	},
	{
		name:  "ViewEntry is the one decoder of sub-MemTable entries",
		scope: outsideBenchmark,
		words: words(`\bDecodeEntry\b`),
	},
	{
		name:  "no anonymous interface assertion in non-test code",
		scope: nonTest,
		hint:  []string{"interface"},
		node: func(_ *goFile, n ast.Node) bool {
			ta, ok := n.(*ast.TypeAssertExpr)
			if !ok {
				return false
			}
			_, anon := ta.Type.(*ast.InterfaceType)
			return anon
		},
	},
	{
		name:  "one memory-component index: no hash index or per-table merge",
		scope: outsideBenchmark,
		words: words(`\b(hashIndex|hashTable|newHashIndex|mergeInto|mergeTable|compactInto)\b`),
	},
	{
		name: "internal/hw has no line maps and no statMu outside *_ref_test.go",
		scope: func(f *goFile) bool {
			return f.under("internal/hw") && !strings.HasSuffix(f.rel, "_ref_test.go")
		},
		words: words(`statMu`),
		hint:  []string{"map["},
		node: func(_ *goFile, n ast.Node) bool {
			m, ok := n.(*ast.MapType)
			if !ok || lastName(m.Key) != "uint64" {
				return false
			}
			v, ok := m.Value.(*ast.StarExpr)
			return ok && (lastName(v.X) == "line" || lastName(v.X) == "xpEntry")
		},
	},
	{
		name:  "one scan merge: no UserScan and no per-call tree iterator",
		scope: outsideBenchmark,
		hint:  []string{"UserScan", "NewIterator"},
		node: func(_ *goFile, n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				return n.Name == "UserScan"
			case *ast.FuncDecl:
				ps := n.Type.Params.List
				return n.Recv != nil && n.Name.Name == "NewIterator" && len(ps) > 0 && len(ps[0].Names) > 0 && ps[0].Names[0].Name == "th"
			}
			return false
		},
	},
	{
		name:  "internal/lsm has no container/heap",
		scope: inDir("internal/lsm", true),
		words: words(`container/heap`),
	},
	{
		name:  "four commands and one report format: no second load generator, report file or profiler",
		scope: outsideBenchmark,
		words: words(`cmd/(cachekv-bench|ycsb|obsdiff)\b|cachekv-bench\b|\bobsdiff\b|cachekv\.obs/v1|\b(EnableProfiler|VerifyProfiles|WriteFolded|ProfileStepNs|SetProfile|LoadReport|NewReport|DiffRuns|RunIngest|SetName)\b`),
	},
	{
		name:  "bgpool runs every background job: no hand-rolled loop or lsm scheduler",
		scope: nonTest,
		words: words(`\b(flushCh|syncCh|compactCh|spillCh|spillState|StartScheduler|StopScheduler|AbortScheduler|SchedulerConfig)\b`),
	},
	{
		name:  "Close is the only stop: no Halt method or Halter probe",
		scope: outsideBenchmark,
		words: words(`\bHalter\b|\.Halt\(`),
		hint:  []string{"Halt"},
		node: func(_ *goFile, n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			return selects(n, "", "Halt") || ok && fd.Recv != nil && fd.Name.Name == "Halt"
		},
	},
	{
		name: "one baseline store: NoveLSM and SLM-DB keep no flush, scan or close path of their own",
		scope: func(f *goFile) bool {
			return !f.test() && f.under("internal/baseline/novelsm", "internal/baseline/slmdb")
		},
		words: words(`\bnewTableIter\b`),
		hint:  []string{"flushJob", "*DB)"},
		node: func(_ *goFile, n ast.Node) bool {
			if ts, ok := n.(*ast.TypeSpec); ok {
				return ts.Name.Name == "flushJob"
			}
			for _, m := range []string{"Scan", "FlushAll", "Close", "release", "flushOne", "zeroLogHead"} {
				if method(n, "*DB", m) {
					return true
				}
			}
			return false
		},
	},
	{
		name:  "RegisterObs publishes a store's counters: no RegisterKV or statistics probe",
		scope: outsideBenchmark,
		words: words(`\bRegisterKV\b|blockCacheStatser|filterStatser|ObsRegistrar`),
	},
	{
		name:  "a write commits on the caller's core: no group commit",
		scope: outsideBenchmark,
		words: words(`\b(shardWriter|writeReq|newWriteReq|submitAndWait|commitGroup|WriterCore|groupCommitWindowNs|groupCommitMaxOps)\b|group_commit`),
	},
	{
		name:  "a Get probes the active-key table once: no negative filter, key fence, address source or finger",
		scope: nonTest,
		words: words(`\bglobalFilter\b|\bmaxUserKey\b|\baddrIter\b|\bFinger\b`),
	},
	{
		name:  "recovery.go has no goroutine, WaitGroup, ImmZone alloc, spill, NT store, raw PMem.Read or snapshotInto",
		scope: func(f *goFile) bool { return f.rel == "internal/core/recovery.go" },
		hint:  []string{"go", "spillLocked", "snapshotInto", "NTWrite", "PMem", "WaitGroup", "immArena"},
		node: func(_ *goFile, n ast.Node) bool {
			if _, ok := n.(*ast.GoStmt); ok {
				return true
			}
			if id, ok := n.(*ast.Ident); ok {
				return id.Name == "spillLocked" || id.Name == "snapshotInto" || id.Name == "NTWrite"
			}
			if s, ok := n.(*ast.SelectorExpr); ok && lastName(s.X) == "PMem" && strings.HasPrefix(s.Sel.Name, "Read") {
				return true
			}
			return selects(n, "sync", "WaitGroup") || selects(n, "immArena", "Alloc")
		},
	},
	{
		name:  "core's tests release a flow pin with forceOff: no exported debug hook",
		scope: outsideBenchmark,
		words: words(`\bDebugUnforceFlowState\b`),
	},
	{
		name:  "cachekv.Options holds no retired knob",
		scope: outsideBenchmark,
		words: words(`\b(DisableElastic|PoolMB|ImmZoneMB|FSMB|TableSizeKB|L0Trigger|BaseLevelMB|BlockCacheMB)\b`),
	},
	{
		name:  "SyncThreshold and FilterBitsPerKey are not public options",
		scope: func(f *goFile) bool { return f.rel == "cachekv.go" },
		words: words(`\b(SyncThreshold|FilterBitsPerKey)\b`),
	},
	{
		name:  "the active-key table replaced the per-slot memory-component filters",
		scope: outsideBenchmark,
		words: words(`\b(FilterBitsPerKey|newFilter|expectedSlotKeys)\b`),
	},
	{
		name:  "one flush-thread default and one read-out of the flow counters",
		scope: everyGoFile,
		words: words(`\b(defaultFlushThreads|DisableFlowControl|FlowStats|FlowSignals)\b`),
	},
	{
		name:  "a cross-shard batch commits through one batch-log record",
		scope: everyGoFile,
		words: words(`\b(twoPC|newTwoPC|twoPCLogBytes|encodePrepare|decodePrepare|encodeCommit|decodeCommit)\b|cachekv\.2pc\.commit`),
	},
	{
		name:  "each number has one read-out: no Metrics mirror, collector merge, DB.SlowOps or policy knob",
		scope: everyGoFile,
		words: words(`WriteSlowOpsJSONL|PerOpNs|DefaultSlowOp|StallSlowdowns|WritesRejected|BlockCacheHitRatio`),
		hint:  []string{") Sub(", ") Merge(", ") SlowOps("},
		node: func(_ *goFile, n ast.Node) bool {
			if method(n, "Metrics", "Sub") || method(n, "*Collector", "Merge") {
				return true
			}
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Name.Name != "SlowOps" || fd.Type.Results == nil {
				return false
			}
			for _, r := range fd.Type.Results.List {
				if at, ok := r.Type.(*ast.ArrayType); ok && selects(at.Elt, "obs", "Dossier") {
					return true
				}
			}
			return false
		},
	},
	{
		name:  "sub-MemTable elasticity is always on: core has no switch for it",
		scope: inDir("internal/core", true),
		words: words(`\bElastic\b`),
	},
	{
		name:  "one host worker feeds the flush servers: no worker or buffer per server",
		scope: inDir("internal/core", true),
		words: words(`\bflushBufs\b`),
		hint:  []string{"Workers"},
		node: func(_ *goFile, n ast.Node) bool {
			return keyed(n, "Workers") && selects(n.(*ast.KeyValueExpr).Value, "o", "FlushThreads")
		},
	},
	{
		name:  "every lazy sync runs where it fires: no sync queue",
		scope: outsideBenchmark,
		words: words(`\b(requestSync|syncJob|pendingSyncs)\b`),
	},
	{
		name:  "no merge kind: no merge job, merge run or merged mark",
		scope: nonTest,
		words: words(`\b(mergeJob|runMerge)\b`),
		hint:  []string{"merges", "compacted"},
		node: func(_ *goFile, n ast.Node) bool {
			return selects(n, "e", "merges") || selects(n, "", "compacted")
		},
	},
	{
		name:  "the flush that fills the ImmZone spills it: no spill kind",
		scope: outsideBenchmark,
		words: words(`\b(spillJob|waitForSpace|Lossy)\b|flush_stall`),
	},
	{
		name:  "compaction runs where its debt is made: no compact kind",
		scope: outsideBenchmark,
		words: words(`\b(compactJob|WaitSettled|Coalesce|LastDone)\b`),
		hint:  []string{"compacts", "Abandon"},
		node: func(_ *goFile, n ast.Node) bool {
			return selects(n, "e", "compacts") || keyed(n, "Abandon")
		},
	},
	{
		name:  "non-test internal/core has no LoadRaw except snapIter's",
		scope: inDir("internal/core", false),
		hint:  []string{"LoadRaw"},
		node: func(f *goFile, n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || id.Name != "LoadRaw" {
				return false
			}
			fd := enclosing(f, id.Pos())
			return fd == nil || fd.Recv == nil || recvType(fd) != "*snapIter"
		},
	},
}

// optionsFields returns the exported fields of cachekv.Options, as declared
// in cachekv.go.
func optionsFields(tree *goTree) []string {
	var out []string
	for _, f := range tree.files {
		if f.rel != "cachekv.go" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok || ts.Name.Name != "Options" {
				return true
			}
			for _, fl := range ts.Type.(*ast.StructType).Fields.List {
				for _, id := range fl.Names {
					if id.IsExported() {
						out = append(out, id.Name)
					}
				}
			}
			return false
		})
	}
	return out
}

// optionSetters returns, per field name, the non-test files outside
// cachekv.go that set a cachekv.Options field: a key of a cachekv.Options
// literal, or an assignment to .Field in a file that imports the package.
func optionSetters(tree *goTree) map[string][]string {
	set := map[string][]string{}
	for _, f := range tree.files {
		if f.test() || f.rel == "cachekv.go" || !f.under("cmd", "examples", "internal", "benchmark") {
			continue
		}
		imports := false
		for _, im := range f.ast.Imports {
			imports = imports || im.Path.Value == `"cachekv"`
		}
		if !imports {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				if selects(n.Type, "cachekv", "Options") {
					for _, el := range n.Elts {
						if kv, ok := el.(*ast.KeyValueExpr); ok {
							set[lastName(kv.Key)] = append(set[lastName(kv.Key)], f.rel)
						}
					}
				}
			case *ast.AssignStmt:
				for _, l := range n.Lhs {
					if s, ok := l.(*ast.SelectorExpr); ok {
						set[s.Sel.Name] = append(set[s.Sel.Name], f.rel)
					}
				}
			}
			return true
		})
	}
	return set
}

// unsetOptions lists the public knobs no caller sets yet, each with what it
// is held for. Every other exported field of cachekv.Options must be set by
// the benchmark, a command or an example.
var unsetOptions = map[string]string{
	"Cores":              "the platform: the simulated machine's core count",
	"FlushThreads":       "the ledger's planned scale row, which sweeps it",
	"WriteStallDeadline": "the ledger's planned overload row",
}

// checkPublicKnobs returns one line per exported cachekv.Options field that
// no caller sets and unsetOptions does not hold, and per unsetOptions entry
// that is no field or has a setter.
func checkPublicKnobs(tree *goTree) []string {
	setters := optionSetters(tree)
	var out []string
	fields := map[string]bool{}
	for _, name := range optionsFields(tree) {
		fields[name] = true
		_, held := unsetOptions[name]
		switch {
		case len(setters[name]) == 0 && !held:
			out = append(out, fmt.Sprintf("cachekv.Options.%s: no non-test file of cmd/, examples/, internal/ or benchmark/ sets it", name))
		case len(setters[name]) > 0 && held:
			out = append(out, fmt.Sprintf("cachekv.Options.%s: set by %s, so it leaves unsetOptions", name, setters[name][0]))
		}
	}
	for name := range unsetOptions {
		if !fields[name] {
			out = append(out, fmt.Sprintf("unsetOptions holds %s, which is no field of cachekv.Options", name))
		}
	}
	sort.Strings(out)
	return out
}

// publicKnobRule is the subtest name of checkPublicKnobs.
const publicKnobRule = "cachekv.Options keeps the platform and the knobs a caller sets"

func TestArchitecture(t *testing.T) {
	tree := loadRepo(t)
	for _, r := range archRules {
		t.Run(r.name, func(t *testing.T) {
			for _, v := range r.check(tree) {
				t.Error(v)
			}
		})
	}
	t.Run(publicKnobRule, func(t *testing.T) {
		for _, v := range checkPublicKnobs(tree) {
			t.Error(v)
		}
	})
}
