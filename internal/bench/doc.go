package bench

import (
	"fmt"
	"hash/crc32"
	"regexp"
	"strconv"
	"strings"
)

// EXPERIMENTS.md is generator output wherever it states a measurement. Each
// figure's tables sit in a block
//
//	<!-- experiments: fig=10 ops=300000 sum=1a2b3c4d -->
//	(one fence holding what `cmd/experiments -fig 10 -ops 300000` printed)
//	<!-- /experiments -->
//
// whose marker carries the op count the figure ran at and the CRC-32 of the
// fence. In the `experiments: summary` block a measured value is written
// **value** `formula` and recomputed from the formula: a cell T[row, col] (its
// text), a ratio A / B ("N.N×") or a relative change A / B - 1 ("+N %"), where
// T[row] is a row's mean and T the figure id plus, when the figure prints
// several tables, the panel letter.
const blockFormat = "<!-- experiments: fig=%s ops=%s sum=%s -->\n%s<!-- /experiments -->\n"

var (
	summaryRE  = regexp.MustCompile(`(?s)<!-- experiments: summary -->\n.*?<!-- /experiments -->\n`)
	formulaRE  = regexp.MustCompile("\\*\\*[^*\n]*\\*\\* `([^`\n]+)`")
	trailingRE = regexp.MustCompile(` +\n`)
)

// blockRE matches figure id's block — blockFormat is its pattern as well as
// its template, hence %s throughout; the groups are the op count and the fence.
func blockRE(id string) *regexp.Regexp {
	return regexp.MustCompile(fmt.Sprintf("(?s)"+blockFormat, regexp.QuoteMeta(id), `(\d+)`, `\w+`, "(.*?)"))
}

// block renders a figure's generator block.
func (r Rendered) block(id string) string {
	var texts []string
	for _, t := range r.Tables {
		texts = append(texts, t.String())
	}
	// No trailing blanks: editors strip them anyway.
	fence := "```\n" + trailingRE.ReplaceAllString(strings.Join(texts, "\n"), "\n") + "```\n"
	return fmt.Sprintf(blockFormat, id, fmt.Sprint(r.Ops), fmt.Sprintf("%08x", crc32.ChecksumIEEE([]byte(fence))), fence)
}

// tableCells reads the block of every registry figure back into tables — the
// registry's titles, notes, headers and row labels at the marker's op count,
// the file's cells — refuses a block that is not, byte for byte, what those
// tables render as (edited by hand, or stale against the registry), and
// returns the cells under every name a formula may use: T[row, col] one cell,
// T[row] the row.
func tableCells(doc string) (map[string][]string, error) {
	cells := map[string][]string{}
	for _, f := range Figures {
		m := blockRE(f.ID).FindStringSubmatch(doc)
		if m == nil {
			return nil, fmt.Errorf("figure %s has no generator block", f.ID)
		}
		ops, _ := strconv.ParseInt(m[1], 10, 64)
		r := f.Skeleton(Scale{Ops: ops, YCSBOps: ops})
		t, row := -1, -1 // table and row the next line belongs to; row < 0 outside the rows
		for _, line := range strings.Split(m[2], "\n") {
			fields := strings.Fields(line)
			switch {
			case strings.HasPrefix(line, "=== "):
				t, row = t+1, -1
			case strings.HasPrefix(line, "---"):
				row = 0
			case len(fields) == 0 || line == "```":
				row = -1
			case row >= 0 && t < len(r.Tables) && row < len(r.Tables[t].Rows):
				r.Tables[t].Rows[row] = append(r.Tables[t].Rows[row], fields[1:]...)
				row++
			}
		}
		if r.block(f.ID) != m[0] {
			return nil, fmt.Errorf("figure %s: the block is not what the registry renders from the cells it holds (edited by hand?)", f.ID)
		}
		for i, t := range r.Tables {
			name := f.ID
			if len(r.Tables) > 1 {
				name += string(rune('a' + i))
			}
			for _, row := range t.Rows {
				cells[name+"["+row[0]+"]"] = row[1:]
				for c, cell := range row[1:] {
					cells[name+"["+row[0]+", "+t.Headers[c+1]+"]"] = []string{cell}
				}
			}
		}
	}
	return cells, nil
}

// UpdateDoc returns doc with the block of every figure in ran re-rendered and
// every Summary value recomputed from the tables the file then holds. Nothing
// outside a block, and no block of a figure not in ran, changes.
func UpdateDoc(doc string, ran map[string]Rendered) (string, error) {
	for id, r := range ran {
		re := blockRE(id)
		if !re.MatchString(doc) {
			return "", fmt.Errorf("figure %s has no generator block to write into", id)
		}
		doc = re.ReplaceAllLiteralString(doc, r.block(id))
	}
	cells, err := tableCells(doc)
	if err != nil {
		return "", err
	}
	doc = summaryRE.ReplaceAllStringFunc(doc, func(summary string) string {
		return formulaRE.ReplaceAllStringFunc(summary, func(pair string) string {
			formula := formulaRE.FindStringSubmatch(pair)[1]
			v, ferr := evalFormula(cells, formula)
			if ferr != nil && err == nil {
				err = fmt.Errorf("Summary: `%s`: %w", formula, ferr)
			}
			return "**" + v + "** `" + formula + "`"
		})
	})
	return doc, err
}

// evalFormula computes one Summary value (see the format comment above).
func evalFormula(cells map[string][]string, formula string) (string, error) {
	ratio, relative := strings.CutSuffix(formula, " - 1")
	num, den, isRatio := strings.Cut(ratio, " / ")
	if !isRatio {
		if v := cells[num]; len(v) == 1 && !relative {
			return v[0], nil
		}
		return "", fmt.Errorf("want a cell T[row, col] the tables have, a ratio A / B or a change A / B - 1")
	}
	a, err := mean(cells, num)
	if err != nil {
		return "", err
	}
	b, err := mean(cells, den)
	if err != nil {
		return "", err
	}
	if relative {
		return fmt.Sprintf("%+.0f %%", (a/b-1)*100), nil
	}
	return fmt.Sprintf("%.1f×", a/b), nil
}

// mean averages the cells ref names, each a number with an optional % or x
// suffix.
func mean(cells map[string][]string, ref string) (float64, error) {
	if len(cells[ref]) == 0 {
		return 0, fmt.Errorf("the tables have no %s", ref)
	}
	sum := 0.0
	for _, c := range cells[ref] {
		v, err := strconv.ParseFloat(strings.TrimRight(c, "%x"), 64)
		if err != nil {
			return 0, fmt.Errorf("%s: cell %q is not a number", ref, c)
		}
		sum += v
	}
	return sum / float64(len(cells[ref])), nil
}
