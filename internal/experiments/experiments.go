// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 5 and Appendices C–E). Each experiment produces a
// Report of labeled series and tables matching the rows the paper plots, at
// a configurable scale: Scale 1.0 reproduces the paper's network sizes
// (10000–20000 peers); smaller scales shrink the network proportionally for
// quick runs and benchmarks, preserving the shapes.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"spnet/internal/parallel"
)

// pmap is the experiment-layer parallel sweep: parallel.Map under the run's
// worker bound, with per-sweep progress reported through Params.Progress.
func pmap[T any](p Params, stage string, n int, fn func(i int) (T, error)) ([]T, error) {
	if p.Progress == nil {
		return parallel.Map(p.Workers, n, fn)
	}
	return parallel.MapProgress(p.Workers, n, func(done, total int) {
		p.Progress(stage, done, total)
	}, fn)
}

// pmapRows is pmap for table-row sweeps with streaming export: completed rows
// are handed to Params.RowSink in index order as their prefix completes, so
// an interrupted sweep leaves the finished rows behind instead of losing the
// whole table. Determinism is parallel.MapStream's: the emitted row sequence
// is bit-identical to the returned table at any worker count.
func pmapRows(p Params, stage string, columns []string, n int, fn func(i int) ([]string, error)) ([][]string, error) {
	var emit func(i int, row []string)
	if p.RowSink != nil {
		emit = func(_ int, row []string) { p.RowSink(stage, columns, row) }
	}
	f := fn
	if p.Progress != nil {
		var mu sync.Mutex
		done := 0
		f = func(i int) ([]string, error) {
			row, err := fn(i)
			if err != nil {
				return nil, err
			}
			mu.Lock()
			done++
			p.Progress(stage, done, n)
			mu.Unlock()
			return row, nil
		}
	}
	return parallel.MapStream(p.Workers, n, emit, f)
}

// Params tune an experiment run.
type Params struct {
	// Scale multiplies the paper's network sizes (default 1.0). The
	// cluster-size sweeps and case study keep their shape at reduced scale.
	Scale float64
	// Trials per configuration (default: experiment-specific, usually 3).
	Trials int
	// Seed for all randomness.
	Seed uint64
	// Workers bounds the evaluation worker pool (0 = GOMAXPROCS, 1 =
	// serial). Every sweep produces bit-identical output at any setting:
	// tasks are enumerated and their RNG streams split before dispatch, and
	// results reduce in task order.
	Workers int
	// Progress, when set, receives per-sweep completion updates: stage
	// names the sweep within the experiment, done counts completed tasks
	// out of total. Calls are serialized with done strictly increasing per
	// sweep; reporting never changes results.
	Progress func(stage string, done, total int)
	// RowSink, when set, receives completed table rows of row-sweep
	// experiments as they finish, in row order — the streaming-export hook
	// CSVStream plugs into so interrupted runs keep partial results. Calls
	// are serialized; sinking never changes results.
	RowSink func(stage string, columns, row []string)
}

func (p Params) scale() float64 {
	if p.Scale <= 0 {
		return 1.0
	}
	return p.Scale
}

func (p Params) trials(def int) int {
	if p.Trials > 0 {
		return p.Trials
	}
	return def
}

// scaled returns n scaled, with a floor.
func (p Params) scaled(n, floor int) int {
	v := int(math.Round(float64(n) * p.scale()))
	if v < floor {
		v = floor
	}
	return v
}

// Series is one plotted curve: paired x/y values with optional 95% CI
// half-widths.
type Series struct {
	Label string
	X     []float64
	Y     []float64
	YErr  []float64 // nil when not applicable
}

// Table is one printed table.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Report is an experiment's full output.
type Report struct {
	ID     string
	Title  string
	Notes  []string
	Tables []Table
	Series []Series
}

// definition registers one experiment.
type definition struct {
	id    string
	title string
	run   func(Params) (*Report, error)
}

var registry = []definition{
	{"table1", "Table 1: configuration parameters and defaults", runTable1},
	{"table2", "Table 2: costs of atomic actions", runTable2},
	{"table3", "Table 3: general statistics", runTable3},
	{"fig4", "Figure 4: aggregate bandwidth vs cluster size", runFig4},
	{"fig5", "Figure 5: individual incoming bandwidth vs cluster size", runFig5},
	{"fig6", "Figure 6: individual processing load vs cluster size", runFig6},
	{"fig7", "Figure 7: outgoing bandwidth by outdegree (3.1 vs 10)", runFig7},
	{"fig8", "Figure 8: expected results by outdegree (3.1 vs 10)", runFig8},
	{"fig9", "Figure 9: expected path length vs average outdegree", runFig9},
	{"fig11", "Figure 11: Gnutella redesign, aggregate load comparison", runFig11},
	{"fig12", "Figure 12: per-node outgoing bandwidth rank curves", runFig12},
	{"rule4", "Rule #4: minimize TTL once reach is full", runRule4},
	{"figA13", "Figure A-13: aggregate bandwidth vs cluster size, low query rate", runFigA13},
	{"figA14", "Figure A-14: individual incoming bandwidth, low query rate", runFigA14},
	{"figA15", "Figure A-15: caveat to rule #3 — outdegree 50 vs 100 at TTL 2", runFigA15},
	{"tableD2", "Appendix D Table 2: aggregate load, outdegree 3.1 vs 10", runTableD2},
	{"simcheck", "Validation: discrete-event simulator vs mean-value analysis", runSimCheck},
	{"kredundancy", "Extension: general k-redundancy sweep (paper evaluates k=2 only)", runKRedundancy},
	{"reliability", "Extension: failure injection — measuring the Section 3.2 reliability claim", runReliability},
	{"livereliability", "Extension: the failure regimes on a live super-peer fleet — lost queries, simulator vs live", runLiveReliabilityDefault},
	{"breakdown", "Ablation: aggregate load attributed to protocol components", runBreakdown},
	{"loadvalidation", "Validation: analytical vs simulated vs live-measured super-peer load", runLoadValidationDefault},
	{"routingcompare", "Extension: query-routing strategies — bandwidth saved vs recall lost, three ways", runRoutingCompareDefault},
	{"trustsweep", "Extension: adversarial peers vs reputation-weighted selection — lost queries, three ways", runTrustSweepDefault},
	{"selfheal", "Extension: self-healing fleet control plane — Section 5.3 decisions pushed to live nodes", runSelfHealDefault},
	{"transferbench", "Extension: content transfer plane — analytical vs live multi-source download throughput", runTransferBenchDefault},
}

// IDs lists the registered experiment ids in order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, d := range registry {
		ids[i] = d.id
	}
	return ids
}

// Titles maps experiment ids to their titles.
func Titles() map[string]string {
	out := make(map[string]string, len(registry))
	for _, d := range registry {
		out[d.id] = d.title
	}
	return out
}

// Run executes the experiment with the given id.
func Run(id string, p Params) (*Report, error) {
	for _, d := range registry {
		if d.id == id {
			rep, err := d.run(p)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", id, err)
			}
			rep.ID = d.id
			rep.Title = d.title
			return rep, nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q (known: %s)",
		id, strings.Join(IDs(), ", "))
}

// Format renders a report as readable text.
func Format(r *Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.ID, r.Title)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, tbl := range r.Tables {
		if tbl.Title != "" {
			fmt.Fprintf(&b, "\n-- %s --\n", tbl.Title)
		}
		widths := make([]int, len(tbl.Columns))
		for i, c := range tbl.Columns {
			widths[i] = len(c)
		}
		for _, row := range tbl.Rows {
			for i, cell := range row {
				if i < len(widths) && len(cell) > widths[i] {
					widths[i] = len(cell)
				}
			}
		}
		writeRow := func(cells []string) {
			for i, cell := range cells {
				if i > 0 {
					b.WriteString("  ")
				}
				fmt.Fprintf(&b, "%-*s", widths[i], cell)
			}
			b.WriteByte('\n')
		}
		writeRow(tbl.Columns)
		for _, row := range tbl.Rows {
			writeRow(row)
		}
	}
	for _, s := range r.Series {
		fmt.Fprintf(&b, "\n-- series: %s --\n", s.Label)
		for i := range s.X {
			if s.YErr != nil && s.YErr[i] != 0 {
				fmt.Fprintf(&b, "  x=%-10.4g y=%-12.6g ±%.3g\n", s.X[i], s.Y[i], s.YErr[i])
			} else {
				fmt.Fprintf(&b, "  x=%-10.4g y=%-12.6g\n", s.X[i], s.Y[i])
			}
		}
	}
	return b.String()
}

// fmtEng renders a value in engineering notation like the paper's tables
// (e.g. 9.08e8).
func fmtEng(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1e4 || math.Abs(v) < 1e-2:
		return fmt.Sprintf("%.3g", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

// clusterSizeLadder returns the cluster sizes swept by the Figures 4–5
// experiments for a network of the given size.
func clusterSizeLadder(graphSize int) []int {
	base := []int{1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000}
	var out []int
	for _, cs := range base {
		if cs <= graphSize {
			out = append(out, cs)
		}
	}
	if len(out) == 0 || out[len(out)-1] != graphSize {
		out = append(out, graphSize)
	}
	sort.Ints(out)
	return out
}
