// Command tescscreen tests every event pair of an attributed graph for
// two-event structural correlation and reports the ranked findings with
// multiple-testing correction — the sweep behind the paper's §5.4 case
// studies.
//
// Usage:
//
//	tescscreen -graph g.txt -events ev.txt -h-level 1 -tail positive
//	tescscreen -graph g.txt -events ev.txt -min-occ 20 -correction fwer -top 30
//	tescscreen -graph g.txt -events ev.txt -tail positive -topk 10
//	tescscreen -graph g.txt -events ev.txt -tail positive -theta 0.3
//
// -topk and -theta switch to the planned screen: candidate pairs are
// ordered by a cheap co-occurrence prior and evaluated best-first with
// confidence-bound early termination, returning provably the same
// ranking as the exhaustive sweep without paying for it (see
// docs/SCREENING.md). Planned results carry raw p-values: a -correction
// other than none needs the whole p-value family and is rejected.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"text/tabwriter"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphio"
	"tesc/internal/screen"
	"tesc/internal/stats"
)

// errUsage reports missing required flags; the usage text is already
// printed.
var errUsage = errors.New("usage")

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	switch {
	case err == nil:
	case errors.Is(err, errUsage), errors.Is(err, flag.ErrHelp):
		os.Exit(2)
	default:
		fmt.Fprintln(os.Stderr, "tescscreen:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("tescscreen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		graphPath  = fs.String("graph", "", "edge-list graph file (required)")
		eventsPath = fs.String("events", "", "event occurrence file (required)")
		hLevel     = fs.Int("h-level", 1, "vicinity level h")
		n          = fs.Int("n", 900, "reference sample size per pair")
		alpha      = fs.Float64("alpha", 0.05, "significance level on adjusted p-values")
		tail       = fs.String("tail", "both", "alternative: both | positive | negative")
		minOcc     = fs.Int("min-occ", 10, "minimum occurrences per event")
		correction = fs.String("correction", "fdr", "multiple-testing correction: fdr | fwer | none")
		top        = fs.Int("top", 20, "print at most this many pairs (0 = all)")
		topk       = fs.Int("topk", 0, "planned screen: return only the k best pairs by score (0 = exhaustive sweep)")
		theta      = fs.Float64("theta", math.NaN(), "planned screen: return every pair scoring >= theta")
		workers    = fs.Int("workers", 0, "concurrent tests (0 = GOMAXPROCS)")
		seed       = fs.Uint64("seed", 1, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *graphPath == "" || *eventsPath == "" {
		fs.Usage()
		return errUsage
	}

	cfg := screen.Config{
		H:              *hLevel,
		SampleSize:     *n,
		Alpha:          *alpha,
		MinOccurrences: *minOcc,
		Workers:        *workers,
		Seed:           *seed,
	}
	switch *tail {
	case "both":
		cfg.Alternative = stats.TwoSided
	case "positive":
		cfg.Alternative = stats.Greater
	case "negative":
		cfg.Alternative = stats.Less
	default:
		return fmt.Errorf("unknown tail %q", *tail)
	}
	switch *correction {
	case "fdr":
		cfg.Correction = screen.FDR
	case "fwer":
		cfg.Correction = screen.FWER
	case "none":
		cfg.Correction = screen.None
	default:
		return fmt.Errorf("unknown correction %q", *correction)
	}
	planned := *topk > 0 || !math.IsNaN(*theta)
	if planned {
		// Only an explicit -correction conflicts: the fdr default is the
		// exhaustive sweep's, not a request.
		set := false
		fs.Visit(func(f *flag.Flag) { set = set || f.Name == "correction" })
		if set && cfg.Correction != screen.None {
			return fmt.Errorf("-correction %s is incompatible with -topk/-theta: a planned screen reports raw p-values", *correction)
		}
	}

	g, store, err := load(*graphPath, *eventsPath)
	if err != nil {
		return err
	}
	pairs := screen.AllPairs(store, *minOcc)
	if planned {
		return runPlanned(stdout, stderr, g, store, pairs, cfg, *topk, *theta, *top, *tail)
	}
	fmt.Fprintf(stderr, "screening %d pairs of %d events (h=%d, n=%d, %s, %s-corrected)...\n",
		len(pairs), store.NumEvents(), cfg.H, cfg.SampleSize, *tail, *correction)

	res, err := screen.Run(g, store, pairs, cfg)
	if err != nil {
		return err
	}

	fmt.Fprintf(stdout, "tested %d pairs, skipped %d, significant %d (alpha=%g)\n",
		res.Tested, res.Skipped, res.Rejected, cfg.Alpha)
	fmt.Fprintf(stdout, "density traversals %d, memo hits %d (one BFS per distinct reference node per sweep)\n\n",
		res.BFSRuns, res.MemoHits)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tevent a\tevent b\tocc\ttau\tz\tp\tadj-p\tsig")
	printed := 0
	for i, p := range res.Pairs {
		if p.Skipped != "" {
			continue
		}
		if *top > 0 && printed >= *top {
			break
		}
		printed++
		sig := ""
		if p.Significant {
			sig = "*"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t(%d,%d)\t%+.3f\t%+.2f\t%.3g\t%.3g\t%s\n",
			i+1, p.A, p.B, p.OccA, p.OccB, p.Tau, p.Z, p.P, p.AdjP, sig)
	}
	return tw.Flush()
}

// load reads the graph and its event occurrences.
func load(graphPath, eventsPath string) (*graph.Graph, *events.Store, error) {
	gf, err := graphio.OpenMaybeGzip(graphPath)
	if err != nil {
		return nil, nil, err
	}
	defer gf.Close()
	g, err := graphio.ReadEdgeList(gf)
	if err != nil {
		return nil, nil, err
	}
	ef, err := graphio.OpenMaybeGzip(eventsPath)
	if err != nil {
		return nil, nil, err
	}
	defer ef.Close()
	store, err := graphio.ReadEvents(ef, g.NumNodes())
	if err != nil {
		return nil, nil, err
	}
	return g, store, nil
}

// runPlanned runs the prioritized top-k / threshold screen and reports
// the ranking plus the planner's work accounting.
func runPlanned(stdout, stderr io.Writer, g *graph.Graph, store *events.Store, pairs [][2]string,
	base screen.Config, topk int, theta float64, top int, tail string) error {
	cfg := screen.PlanConfig{Config: base, K: topk}
	if topk > 0 {
		fmt.Fprintf(stderr, "planning top-%d of %d candidate pairs (h=%d, n=%d, %s, raw p-values)...\n",
			topk, len(pairs), cfg.H, cfg.SampleSize, tail)
	} else {
		cfg.Theta = theta
		fmt.Fprintf(stderr, "planning threshold %.3f over %d candidate pairs (h=%d, n=%d, %s, raw p-values)...\n",
			theta, len(pairs), cfg.H, cfg.SampleSize, tail)
	}

	res, err := screen.Plan(g, store, pairs, cfg)
	if err != nil {
		return err
	}
	st := res.Stats
	fmt.Fprintf(stdout, "candidates %d: full tests %d, pruned early %d, pruned by prior %d, skipped %d (checkpoints %d)\n",
		st.Candidates, st.FullTests, st.PrunedEarly, st.PrunedPrior, st.Skipped, st.Checkpoints)
	fmt.Fprintf(stdout, "density evaluations %d, traversals %d, memo hits %d — an exhaustive sweep pays %d full tests\n\n",
		st.DensityEvals, st.BFSRuns, st.MemoHits, st.Candidates)
	tw := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "rank\tevent a\tevent b\tocc\ttau\tz\tp\tsig")
	for i, p := range res.Pairs {
		if top > 0 && i >= top {
			break
		}
		sig := ""
		if p.Significant {
			sig = "*"
		}
		fmt.Fprintf(tw, "%d\t%s\t%s\t(%d,%d)\t%+.3f\t%+.2f\t%.3g\t%s\n",
			i+1, p.A, p.B, p.OccA, p.OccB, p.Tau, p.Z, p.P, sig)
	}
	return tw.Flush()
}
