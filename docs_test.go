package cachekv

import (
	"fmt"
	"go/ast"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The doc test: what the docs cite in backticks names something in the Go
// tree (benchmark/ included, read only), and what a doc or a Go comment cites
// of DESIGN.md is one of its headings. A doc states what the code does, so a
// name the code no longer has is a stale sentence, not history to keep.

// coveredDocs are the docs the test reads. EXPERIMENTS.md's figure blocks are
// fenced, so only its prose is read.
var coveredDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// docIndex is what a backticked citation may resolve to.
type docIndex struct {
	idents map[string]bool // every identifier, declared or used
	strs   map[string]bool // every string literal's value
	// pairs holds "X.Sel" for every selector expression, "pkg.Name" for
	// every package-level declaration and "Type.Member" for every field and
	// method; members holds a type's fields and methods under "pkg.Type".
	pairs   map[string]bool
	members map[string]map[string]bool
	pkgs    map[string]bool
	paths   []string
}

func newDocIndex(tree *goTree) *docIndex {
	x := &docIndex{
		idents:  map[string]bool{},
		strs:    map[string]bool{},
		pairs:   map[string]bool{},
		members: map[string]map[string]bool{},
		pkgs:    map[string]bool{},
		paths:   tree.paths,
	}
	member := func(pkg, typ, name string) {
		x.pairs[typ+"."+name] = true
		if x.members[pkg+"."+typ] == nil {
			x.members[pkg+"."+typ] = map[string]bool{}
		}
		x.members[pkg+"."+typ][name] = true
	}
	for _, f := range tree.files {
		pkg := f.ast.Name.Name
		x.pkgs[pkg] = true
		for _, d := range f.ast.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					x.pairs[pkg+"."+d.Name.Name] = true
				} else {
					member(pkg, strings.TrimPrefix(recvType(d), "*"), d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						x.pairs[pkg+"."+s.Name.Name] = true
						if x.members[pkg+"."+s.Name.Name] == nil {
							x.members[pkg+"."+s.Name.Name] = map[string]bool{}
						}
						var fields []*ast.Field
						switch t := s.Type.(type) {
						case *ast.StructType:
							fields = t.Fields.List
						case *ast.InterfaceType:
							fields = t.Methods.List
						}
						for _, fl := range fields {
							if len(fl.Names) == 0 {
								member(pkg, s.Name.Name, lastName(fl.Type))
							}
							for _, id := range fl.Names {
								member(pkg, s.Name.Name, id.Name)
							}
						}
					case *ast.ValueSpec:
						for _, id := range s.Names {
							x.pairs[pkg+"."+id.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				x.idents[n.Name] = true
			case *ast.BasicLit:
				// The rule files' strings spell out what is refused.
				if n.Kind == token.STRING && !ruleFiles[f.rel] {
					s, _ := strconv.Unquote(n.Value)
					x.strs[s] = true
				}
			case *ast.SelectorExpr:
				x.pairs[lastName(n.X)+"."+n.Sel.Name] = true
			}
			return true
		})
	}
	return x
}

// isPath reports whether s names a file or directory of the tree, in full
// or by its trailing path elements (recovery.go, verify/SKILL.md).
func (x *docIndex) isPath(s string) bool {
	s = strings.TrimSuffix(s, "/")
	for _, p := range x.paths {
		if p == s || strings.HasSuffix(p, "/"+s) {
			return true
		}
	}
	return false
}

var (
	derefRE  = regexp.MustCompile(`\(\*(\w+)\)`)
	argsRE   = regexp.MustCompile(`\([^()]*\)`)
	goNameRE = regexp.MustCompile(`^[A-Za-z_]\w*(\.[A-Za-z_]\w*)*$`)
)

// goName returns the dotted Go name a backticked span cites — pkg.(*T).m is
// pkg.T.m, f(x).g() is f.g — or "" when the span is not Go-shaped (a
// command line, a flag, a formula, a path).
func goName(span string) string {
	s := derefRE.ReplaceAllString(strings.TrimPrefix(span, "*"), "$1")
	for {
		t := argsRE.ReplaceAllString(s, "")
		if t == s {
			break
		}
		s = t
	}
	if !goNameRE.MatchString(s) {
		return ""
	}
	return s
}

// resolves reports whether a Go-shaped name resolves: a lone name is an
// identifier; in a dotted one each neighbouring pair is a selector, a
// package's declaration or a type's member, and pkg.Type.Member is a member
// of that package's type.
func (x *docIndex) resolves(name string) bool {
	if x.strs[name] || x.isPath(name) {
		return true
	}
	parts := strings.Split(name, ".")
	if len(parts) == 1 {
		return x.idents[name]
	}
	for i := 0; i+1 < len(parts); i++ {
		if !x.pairs[parts[i]+"."+parts[i+1]] {
			return false
		}
	}
	if m, ok := x.members[parts[0]+"."+parts[1]]; ok && len(parts) > 2 && x.pkgs[parts[0]] {
		return m[parts[2]]
	}
	return true
}

// prose returns text with its fenced code blocks blanked, line for line.
func prose(text string) string {
	lines := strings.Split(text, "\n")
	fenced := false
	for i, l := range lines {
		if strings.HasPrefix(strings.TrimSpace(l), "```") {
			fenced = !fenced
			lines[i] = ""
		} else if fenced {
			lines[i] = ""
		}
	}
	return strings.Join(lines, "\n")
}

var spanRE = regexp.MustCompile("`([^`]+)`")

// unresolved returns one line per Go-shaped backticked span of the doc's
// prose that names nothing in the tree.
func (x *docIndex) unresolved(doc, text string) []string {
	p := prose(text)
	var out []string
	for _, m := range spanRE.FindAllStringSubmatchIndex(p, -1) {
		span := p[m[2]:m[3]]
		if name := goName(span); name != "" && !x.strs[span] && !x.resolves(name) {
			line := 1 + strings.Count(p[:m[0]], "\n")
			out = append(out, fmt.Sprintf("%s:%d: `%s` names nothing in the Go tree", doc, line, span))
		}
	}
	return out
}

// designHeads holds DESIGN.md's section numbers and heading titles.
type designHeads struct {
	nums   map[string]bool
	titles []string
}

var (
	headingRE = regexp.MustCompile(`(?m)^#{1,6}[ \t]+(.+)$`)
	numberRE  = regexp.MustCompile(`^(\d+(?:\.\d+)*)\.?[ \t]+`)
	// A citation of a DESIGN.md section, by number (§n, §n.m) or by quoted
	// title, across a line break too.
	sectionRE = regexp.MustCompile(`DESIGN(?:\.md)?\s+(§\S+|"[^"]+")`)
)

func designHeadings(text string) designHeads {
	h := designHeads{nums: map[string]bool{}}
	for _, m := range headingRE.FindAllStringSubmatch(prose(text), -1) {
		title := m[1]
		if n := numberRE.FindStringSubmatch(title); n != nil {
			h.nums[n[1]] = true
			title = title[len(n[0]):]
		}
		h.titles = append(h.titles, title)
	}
	return h
}

// names reports whether a cited section (§n, or a quoted title) is a
// heading: a number DESIGN.md numbers, or a title a heading is or begins
// with.
func (h designHeads) names(cite string) bool {
	if n, ok := strings.CutPrefix(cite, "§"); ok {
		n = strings.TrimSuffix(strings.TrimSuffix(n, "'s"), "’s")
		return h.nums[strings.TrimRight(n, ".,;:)")]
	}
	t := strings.Join(strings.Fields(strings.Trim(cite, `"`)), " ")
	for _, title := range h.titles {
		if title == t || strings.HasPrefix(title, t) && strings.ContainsAny(title[len(t):len(t)+1], " :,(") {
			return true
		}
	}
	return false
}

// badSections returns one line per DESIGN citation in text that names no
// heading; first is the line text starts on.
func (h designHeads) badSections(where string, first int, text string) []string {
	var out []string
	for _, m := range sectionRE.FindAllStringSubmatchIndex(text, -1) {
		if cite := text[m[2]:m[3]]; !h.names(cite) {
			line := first + strings.Count(text[:m[0]], "\n")
			out = append(out, fmt.Sprintf("%s:%d: DESIGN %s names no heading of DESIGN.md", where, line, cite))
		}
	}
	return out
}

// docFindings returns what is wrong with one doc's citations.
func docFindings(x *docIndex, h designHeads, doc, text string) []string {
	return append(x.unresolved(doc, text), h.badSections(doc, 1, prose(text))...)
}

type docFixture struct {
	x     *docIndex
	heads designHeads
}

var repoDocs = sync.OnceValues(func() (docFixture, error) {
	tree, err := repoTree()
	if err != nil {
		return docFixture{}, err
	}
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		return docFixture{}, err
	}
	return docFixture{newDocIndex(tree), designHeadings(string(design))}, nil
})

func loadDocs(t *testing.T) docFixture {
	t.Helper()
	d, err := repoDocs()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDocsCiteWhatExists(t *testing.T) {
	d := loadDocs(t)
	for _, doc := range coveredDocs {
		t.Run(doc, func(t *testing.T) {
			text, err := os.ReadFile(doc)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range docFindings(d.x, d.heads, doc, string(text)) {
				t.Error(f)
			}
		})
	}
	t.Run("Go comments cite DESIGN headings", func(t *testing.T) {
		tree := loadRepo(t)
		for _, f := range tree.files {
			if f.under("benchmark") {
				continue
			}
			for _, g := range f.ast.Comments {
				pos := tree.fset.Position(g.Pos())
				for _, bad := range d.heads.badSections(f.rel, pos.Line, g.Text()) {
					t.Error(bad)
				}
			}
		}
	})
}
