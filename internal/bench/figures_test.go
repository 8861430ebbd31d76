package bench

import (
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestExperimentsTinyScale runs every figure of the registry end to end at a
// minimal scale — Figures 15 and 16 too, their op-count floor lifted: a harness
// smoke test, not a reproduction run.
func TestExperimentsTinyScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment harness smoke test is slow")
	}
	for _, f := range Figures {
		f.MinOps = 0
		r, err := f.Run(Scale{Ops: 4000, YCSBOps: 3000})
		if err != nil {
			t.Fatal(err)
		}
		for _, tab := range r.Tables {
			for _, row := range tab.Rows {
				if len(row) != len(tab.Headers) {
					t.Errorf("figure %s, %q: row %v does not fill headers %v", f.ID, tab.Title, row, tab.Headers)
				}
				if f.ID == "recovery" && row[2] != "200/200" {
					t.Errorf("recovery lost data: %v", row)
				}
			}
		}
	}
}

// The registry is what the deleted per-figure functions were: eleven figures,
// fifteen tables, with the row counts the old smoke tests pinned.
func TestFiguresShape(t *testing.T) {
	want := map[string][]int{
		"4": {6}, "5": {6, 2}, "10": {9, 9}, "11": {9, 9}, "12": {5, 5}, "13": {5},
		"14": {3}, "15": {4}, "16": {5}, "wa": {9}, "recovery": {3},
	}
	if len(Figures) != len(want) {
		t.Fatalf("%d figures, want %d", len(Figures), len(want))
	}
	for _, f := range Figures {
		sk := f.Skeleton(Scale{Ops: 1000, YCSBOps: 500})
		if floor := max(f.MinOps, 1000); sk.Ops != floor && !(f.YCSB && sk.Ops == 500) {
			t.Errorf("figure %s runs %d ops at -ops 1000 -ycsb-ops 500", f.ID, sk.Ops)
		}
		var rows []int
		for _, tab := range sk.Tables {
			rows = append(rows, len(tab.Rows))
		}
		if len(rows) != len(want[f.ID]) {
			t.Fatalf("figure %s: %d tables, want %d", f.ID, len(rows), len(want[f.ID]))
		}
		for i := range rows {
			if rows[i] != want[f.ID][i] {
				t.Errorf("figure %s table %d: %d rows, want %d", f.ID, i, rows[i], want[f.ID][i])
			}
		}
	}
}

// TestExperimentsDocIsGenerated checks EXPERIMENTS.md without running an
// engine: every fenced table lies in a generator block of a registry figure,
// every registry figure has a block, each block is exactly what the registry
// renders from the cells it holds at the op count its marker carries (titles,
// notes, headers, row labels, alignment, checksum), and every Summary value is
// what its formula computes from those cells.
func TestExperimentsDocIsGenerated(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkDoc(string(raw)); err != nil {
		t.Fatal(err)
	}
}

// The three hand edits the check exists to catch.
func TestExperimentsDocRejectsHandEdits(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	cell := regexp.MustCompile(`(?m)^(NoveLSM +)\S+`)
	block16 := regexp.MustCompile(`(?s)<!-- experiments: fig=16 .*?<!-- /experiments -->\n`)
	for name, tc := range map[string]struct{ edited, want string }{
		"a cell edited by hand":               {cell.ReplaceAllString(doc, "${1}99.9%"), "figure 4"},
		"a registry figure without block":     {block16.ReplaceAllString(doc, ""), "figure 16"},
		"a Summary row naming no cell":        {strings.Replace(doc, "`10b[CacheKV] /", "`10b[RocksDB] /", 1), "no 10b[RocksDB]"},
		"a table typed outside any block":     {doc + "\n```\nsystem  1\nX       2\n```\n", "outside"},
		"a Summary value typed, not computed": {regexp.MustCompile("\\*\\*[^*]+\\*\\* (`10b\\[CacheKV\\] /)").ReplaceAllString(doc, "**9.9×** $1"), "Summary"},
	} {
		if tc.edited == doc {
			t.Errorf("%s: the edit did not apply", name)
		} else if err := checkDoc(tc.edited); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: checkDoc = %v, want an error naming %q", name, err, tc.want)
		}
	}
}

// TestUpdateDocRefusesARescale: a figure that ran at another op count than
// its block records is refused, naming the figure and both counts, unless
// rescale is set. Figure wa's cells feed no Summary value, so its skeleton
// stands in for a run.
func TestUpdateDocRefusesARescale(t *testing.T) {
	raw, err := os.ReadFile("../../EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	figs := map[string]Figure{}
	for _, f := range Figures {
		figs[f.ID] = f
	}
	for _, id := range []string{"12", "wa"} {
		recorded, err := RecordedOps(doc, id)
		if err != nil {
			t.Fatal(err)
		}
		ops := recorded + 50_000
		ran := map[string]Rendered{id: figs[id].Skeleton(Scale{Ops: ops, YCSBOps: ops})}
		want := fmt.Sprintf("figure %s ran at %d ops, but its block records %d", id, ops, recorded)
		if _, err := UpdateDoc(doc, ran, false); err == nil || err.Error() != want {
			t.Errorf("UpdateDoc = %v, want %q", err, want)
		}
	}
	ops := int64(20_000)
	out, err := UpdateDoc(doc, map[string]Rendered{"wa": figs["wa"].Skeleton(Scale{Ops: ops, YCSBOps: ops})}, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := RecordedOps(out, "wa"); got != ops {
		t.Fatalf("with rescale the block records %d ops, want %d", got, ops)
	}
}

// checkDoc is TestExperimentsDocIsGenerated's check on one document text.
func checkDoc(doc string) error {
	// UpdateDoc refuses a figure without a block and a block that is not what
	// the registry renders from its cells, and recomputes the Summary.
	out, err := UpdateDoc(doc, nil, false)
	if err != nil {
		return err
	}
	if out != doc {
		have, want := strings.Split(doc, "\n"), strings.Split(out, "\n")
		for i := range have {
			if have[i] != want[i] {
				return fmt.Errorf("Summary: a value is not what its formula computes: line %d has\n%s\nwant\n%s", i+1, have[i], want[i])
			}
		}
	}
	blocks := regexp.MustCompile(`(?s)<!-- experiments: .*?<!-- /experiments -->\n`)
	if n := len(blocks.FindAllString(doc, -1)); n != len(Figures)+1 {
		return fmt.Errorf("%d generator blocks, want one per registry figure and the Summary (%d)", n, len(Figures)+1)
	}
	inFence := false
	for _, line := range strings.Split(blocks.ReplaceAllString(doc, ""), "\n") {
		if strings.HasPrefix(line, "```") {
			if inFence = !inFence; inFence && line == "```" {
				return fmt.Errorf("a fenced table outside any generator block (command fences say ```sh)")
			}
		}
	}
	return nil
}
