// Package bench regenerates every table and figure of the paper's
// evaluation (§5): one runner per artifact, each returning a renderable
// Figure (series data) or Table (rows) whose shape is directly comparable
// with the published plots. cmd/tescbench drives the runners from the
// command line; bench_test.go wraps them in testing.B benchmarks.
//
// The paper's datasets are proprietary or unavailable, so runners operate
// on the surrogate graphs documented in DESIGN.md §3 (planted-partition
// for DBLP, hub graph for Intrusion, R-MAT for Twitter). Every runner
// takes a Config whose Scale knobs shrink or grow the workload; defaults
// are laptop-sized.
package bench

import (
	"fmt"
	"io"
	"math/rand/v2"
	"strings"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// Config controls workload sizes across all experiment runners.
type Config struct {
	// DBLPScale scales the DBLP surrogate (1.0 ≈ 100k nodes; the paper's
	// real graph corresponds to ≈9.6).
	DBLPScale float64
	// IntrusionNodes sizes the Intrusion surrogate (paper: 200,858).
	IntrusionNodes int
	// TwitterScaleExp is the R-MAT exponent of the Twitter surrogate
	// (nodes = 2^exp; the paper's graph corresponds to ≈24.25).
	TwitterScaleExp int
	// Pairs is the number of simulated event pairs per figure point
	// (paper: 100).
	Pairs int
	// SampleSize is the reference-node sample size n (paper: 900).
	SampleSize int
	// Reps is the repetition count for timing experiments (paper: 50).
	Reps int
	// Seed drives all randomness; identical configs reproduce identical
	// outputs.
	Seed uint64
	// Workers bounds index-construction parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultConfig returns the laptop-sized configuration `tescbench -exp`
// runs by default (README, "Benchmarks"): minutes per figure, shapes
// intact.
func DefaultConfig() Config {
	return Config{
		DBLPScale:       0.2, // ≈20k nodes
		IntrusionNodes:  20_000,
		TwitterScaleExp: 15, // 32k nodes
		Pairs:           10,
		SampleSize:      900,
		Reps:            5,
		Seed:            1,
	}
}

// TinyConfig returns a seconds-scale configuration for tests and smoke
// benchmarks.
func TinyConfig() Config {
	return Config{
		DBLPScale:       0.02, // 2k nodes
		IntrusionNodes:  3_000,
		TwitterScaleExp: 11, // 2k nodes
		Pairs:           3,
		SampleSize:      300,
		Reps:            2,
		Seed:            1,
	}
}

// occurrences returns the per-event occurrence count for a graph of n
// nodes, matching the paper's 5000/964,677 ≈ 0.5% density with a floor
// that keeps small surrogates informative.
func occurrences(n int) int {
	occ := n / 200
	if occ < 60 {
		occ = 60
	}
	return occ
}

// DBLP returns the DBLP surrogate graph for the config: a clique-based
// co-authorship graph (papers = author cliques inside communities),
// matching the real graph's community structure, average degree and —
// crucially for 1-hop correlations — high clustering coefficient.
func (c Config) DBLP() *graph.Graph {
	rng := rand.New(rand.NewPCG(c.Seed, 0xdb))
	return graphgen.Coauthorship(graphgen.DefaultCoauthorship(c.DBLPScale), rng)
}

// DBLPConfig exposes the surrogate's layout (community membership) to
// the table planting code.
func (c Config) DBLPConfig() graphgen.CoauthorshipConfig {
	return graphgen.DefaultCoauthorship(c.DBLPScale)
}

// Intrusion returns the Intrusion surrogate graph: subnet cliques wired
// to a few router hubs of degree ≈ n/4 (paper: hub degrees ≈50k on 200k
// nodes, 2-vicinities covering much of the graph).
func (c Config) Intrusion() *graph.Graph {
	rng := rand.New(rand.NewPCG(c.Seed, 0x1d))
	return graphgen.Intrusion(graphgen.DefaultIntrusion(c.IntrusionNodes), rng)
}

// IntrusionConfig exposes the surrogate's subnet layout to the table
// planting code.
func (c Config) IntrusionConfig() graphgen.IntrusionConfig {
	return graphgen.DefaultIntrusion(c.IntrusionNodes)
}

// Twitter returns the Twitter surrogate graph (R-MAT, edge factor 8),
// used for the raw BFS-cost scaling of Figure 10(a).
func (c Config) Twitter() *graph.Graph {
	rng := rand.New(rand.NewPCG(c.Seed, 0x77))
	return graphgen.RMAT(graphgen.DefaultTwitterSurrogate(c.TwitterScaleExp), rng)
}

// TwitterMutual returns the *bidirectional* Twitter surrogate used by the
// sampler-efficiency experiment (Figure 9): the paper's graph keeps only
// mutual follow edges, which bounds hub degrees far below the raw crawl's.
// A preferential-attachment graph with average degree 16 (= 2·0.16B/20M)
// matches that profile; it is generated 4× larger than the R-MAT surrogate
// so the sampler cost crossovers fall inside the measured range.
func (c Config) TwitterMutual() *graph.Graph {
	rng := rand.New(rand.NewPCG(c.Seed, 0x78))
	return graphgen.BarabasiAlbert(1<<(c.TwitterScaleExp+2), 8, rng)
}

// Series is one named curve of a figure.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Figure is a regenerated paper figure: a set of series over a common
// axis pair.
type Figure struct {
	ID     string // e.g. "fig5a"
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// Table is a regenerated paper table.
type Table struct {
	ID     string // e.g. "table1"
	Title  string
	Header []string
	Rows   [][]string
}

// Render writes the figure as aligned text: one row per X value, one
// column per series.
func (f Figure) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", f.ID, f.Title); err != nil {
		return err
	}
	header := append([]string{f.XLabel}, make([]string, len(f.Series))...)
	for i, s := range f.Series {
		header[i+1] = s.Name
	}
	rows := [][]string{}
	for i := range firstSeries(f).X {
		row := make([]string, len(f.Series)+1)
		row[0] = trimFloat(firstSeries(f).X[i])
		for j, s := range f.Series {
			if i < len(s.Y) {
				row[j+1] = trimFloat(s.Y[i])
			} else {
				row[j+1] = "-"
			}
		}
		rows = append(rows, row)
	}
	return writeAligned(w, header, rows)
}

func firstSeries(f Figure) Series {
	if len(f.Series) == 0 {
		return Series{}
	}
	return f.Series[0]
}

// Render writes the table as aligned text.
func (t Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	return writeAligned(w, t.Header, t.Rows)
}

func writeAligned(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		var sb strings.Builder
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			for p := len(cell); p < widths[i]; p++ {
				sb.WriteByte(' ')
			}
		}
		return strings.TrimRight(sb.String(), " ")
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	var sb strings.Builder
	for i, wd := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", wd))
	}
	if _, err := fmt.Fprintln(w, sb.String()); err != nil {
		return err
	}
	for _, row := range rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.4f", v)
	s = strings.TrimRight(s, "0")
	s = strings.TrimRight(s, ".")
	if s == "" || s == "-" {
		return "0"
	}
	return s
}
