package bench

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cachekv/internal/engines"
	"cachekv/internal/hw"
)

// Scale controls how large the experiments run. The paper uses 10 M ops per
// test (5 M for YCSB) on a physical testbed; cmd/experiments' flag defaults
// regenerate the whole suite in minutes, and every figure takes the full counts.
type Scale struct {
	Ops     int64 // ops per measured phase (paper: 10,000,000)
	YCSBOps int64 // ops per YCSB phase (paper: 5,000,000)
}

// A Figure is one figure of the paper's evaluation, or an extension, as data:
// Figures lists them all and Run is the only code that executes one.
type Figure struct {
	ID      string // the -fig name
	Summary string // the -list line
	YCSB    bool   // sized by Scale.YCSBOps, not Scale.Ops
	MinOps  int64  // floor on the op count: the data set must dwarf the pool
	Trials  int    // each cell is the per-metric median of this many runs (0 = 1)
	Panels  []Panel
}

// A Panel is one printed table. With one metric, every cell is a run of its
// own — Cell(ops, row, col) — read through that metric, Header[1:] labelling
// the swept column; with several, a row is one run and each metric a column.
type Panel struct {
	Title, Note string   // every %d in Note is the figure's op count
	Header      []string // corner, then the column labels
	Rows        []string // row labels: the systems, or a swept parameter
	Cell        func(ops int64, row, col int) Cell
	Metrics     []Metric
}

// Cell is the experiment behind one run: which engine, sized how, and the
// phases to run on it in order.
type Cell struct {
	Kind   engines.Kind
	Config EngineConfig
	Phases []Phase
}

// A Phase is one step of a Cell, run against the cell's open engine.
type Phase func(c *openCell) (Result, error)

// A Metric is one number read from a run's per-phase results, and its format.
type Metric struct {
	Read   func(phases []Result) float64
	Format string
}

// openCell is a Cell with its machine and engine open; th opened DB.
type openCell struct {
	Cell
	*Runner
	th *hw.Thread
}

// open opens the cell's engine on m, recovering whatever m's PMem holds.
func (cell Cell) open(m *hw.Machine) (*openCell, error) {
	th := m.NewThread(0)
	db, err := cell.Config.Open(cell.Kind, m, th)
	if err != nil {
		return nil, err
	}
	return &openCell{cell, NewRunner(m, db), th}, nil
}

// run is the one open-run-close sequence: a fresh machine, the cell's engine,
// its phases in order, and the engine closed on every path.
func (cell Cell) run() (res []Result, err error) {
	c, err := cell.open(cell.Config.NewMachine())
	if err != nil {
		return nil, err
	}
	defer func() {
		if cerr := c.DB.Close(c.th); err == nil {
			err = cerr
		}
	}()
	for i, p := range cell.Phases {
		r, err := p(c)
		if err != nil {
			return nil, fmt.Errorf("phase %d: %w", i, err)
		}
		res = append(res, r)
	}
	return res, nil
}

// workload is the Phase that runs w through Runner.Run.
func workload(w Workload) Phase {
	return func(c *openCell) (Result, error) { return c.Run(w) }
}

// powerCut halts the engine, cuts the power and reopens the engine on what
// the persistence domain kept; its Result's ElapsedNs is the virtual time the
// reopen — recovery — took.
func powerCut(c *openCell) (Result, error) {
	c.store.Halt() // CacheKV family only
	c.M.Crash()
	_ = c.DB.Close(c.th) // a halted engine's Close only stops its goroutines
	c.M.Recover()
	re, err := c.Cell.open(c.M)
	if err != nil {
		return Result{}, fmt.Errorf("reopen: %w", err)
	}
	*c = *re
	return Result{Name: "recovery", ElapsedNs: c.th.Clock.Now()}, nil
}

// medians runs the cell trials times and returns each metric's median,
// formatted; the virtual pipeline's interaction with real goroutine
// scheduling introduces run-to-run variance that a median damps.
func (cell Cell) medians(trials int, metrics []Metric) ([]string, error) {
	vals := make([][]float64, len(metrics))
	for t := 0; t < max(1, trials); t++ {
		res, err := cell.run()
		if err != nil {
			return nil, err
		}
		for i, m := range metrics {
			vals[i] = append(vals[i], m.Read(res))
		}
	}
	out := make([]string, len(metrics))
	for i, m := range metrics {
		sort.Float64s(vals[i])
		out[i] = fmt.Sprintf(m.Format, vals[i][len(vals[i])/2])
	}
	return out, nil
}

// Rendered is one figure's tables and the op count they were measured at.
type Rendered struct {
	Ops    int64
	Tables []*Table
}

// Skeleton returns the figure's tables as they print at scale s — titles,
// notes, headers, row labels, no cells — and the op count: the scale's, raised
// to the figure's floor.
func (f Figure) Skeleton(s Scale) Rendered {
	ops := s.Ops
	if f.YCSB {
		ops = s.YCSBOps
	}
	r := Rendered{Ops: max(ops, f.MinOps)}
	for _, p := range f.Panels {
		t := &Table{Title: p.Title, Headers: p.Header,
			Note: strings.ReplaceAll(p.Note, "%d", strconv.FormatInt(r.Ops, 10))}
		for _, label := range p.Rows {
			t.AddRow(label)
		}
		r.Tables = append(r.Tables, t)
	}
	return r
}

// Run executes every cell of the figure at scale s and returns its tables.
func (f Figure) Run(s Scale) (Rendered, error) {
	out := f.Skeleton(s)
	for i, p := range f.Panels {
		runs := 1 // per row
		if len(p.Metrics) == 1 {
			runs = len(p.Header) - 1
		}
		for r, row := range p.Rows {
			for c := 0; c < runs; c++ {
				cells, err := p.Cell(out.Ops, r, c).medians(f.Trials, p.Metrics)
				if err != nil {
					if runs > 1 {
						row += "/" + p.Header[c+1]
					}
					return Rendered{}, fmt.Errorf("fig %s: %s: %w", f.ID, row, err)
				}
				out.Tables[i].Rows[r] = append(out.Tables[i].Rows[r], cells...)
			}
		}
	}
	return out, nil
}
