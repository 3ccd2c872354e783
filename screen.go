package tesc

import (
	"context"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/screen"
)

// EventSet maps event names to their occurrence node lists — the input
// of the screening API.
type EventSet map[string][]int

// ScreenOptions configures a multi-pair screening run (see Screen).
type ScreenOptions struct {
	// H is the vicinity level of every test (required, ≥ 1); §5.4's
	// case studies screen at h = 1 and 2.
	H int
	// SampleSize is the per-pair reference sample size (default 900,
	// the sample size §5.2.1 fixes for the accuracy experiments).
	SampleSize int
	// Alpha is the significance level applied to *corrected* p-values
	// (default 0.05, the level used throughout §5).
	Alpha float64
	// Tail selects the tested direction for every pair; §5.4's keyword
	// and alert sweeps test the positive (attraction) tail.
	Tail Tail
	// MinOccurrences skips events with fewer occurrences (default 1),
	// mirroring §5.4's restriction to frequent keywords — tiny events
	// give degenerate reference populations.
	MinOccurrences int
	// Bonferroni switches from the default Benjamini–Hochberg FDR
	// control to the family-wise Bonferroni correction. Multiple-testing
	// control is this package's addition: §5.4 reports top-ranked pairs,
	// and hundreds of null pairs at α = 0.05 would yield spurious hits.
	Bonferroni bool
	// Workers bounds concurrency (0 = GOMAXPROCS). Each worker owns
	// private BFS machinery, so screening parallelizes like §4.2's
	// offline index construction.
	Workers int
	// Seed makes the run deterministic (0 = fixed default); each pair
	// derives an independent stream from it.
	Seed uint64
	// Progress, when non-nil, is called after each pair finishes with
	// the number of completed pairs and the total: exactly once per
	// pair, each done value 1..len(pairs) delivered exactly once, with
	// no lock held — concurrent workers may overlap and report out of
	// order, so gauge consumers should fold with max. The tescd daemon
	// uses it for screening-job polling.
	Progress func(done, total int)
	// NoMemo disables the cross-pair density memo that deduplicates
	// reference-node traversals across pairs. The memo changes nothing
	// in the statistics (results are bit-identical, which the
	// differential tests pin); disable it only to measure its effect or
	// to trade the O(NumNodes × events) count arrays for traversal
	// time.
	NoMemo bool
	// Engines, when non-nil and bound to g, lends pooled BFS engines to
	// the sweep's workers (see Graph.NewEnginePool).
	Engines *EnginePool
	// Ctx, when non-nil, lets the caller abandon the sweep: workers
	// check it between pairs and the in-flight density phase checks it
	// between traversal chunks. A canceled Screen discards its partial
	// results and returns an error wrapping the context's cause
	// (errors.Is with context.Canceled / context.DeadlineExceeded
	// works); a canceled ScreenTopK instead returns the ranking over
	// the pairs completed so far alongside the error. Nil runs to
	// completion.
	Ctx context.Context
}

// ScreenedPair is one tested pair, ordered by corrected p-value.
type ScreenedPair struct {
	A, B        string
	OccA, OccB  int
	Tau, Z      float64
	P           float64 // raw p-value
	AdjP        float64 // corrected p-value
	Significant bool    // AdjP < Alpha
	Skipped     string  // non-empty when the pair was not tested
}

// ScreenResult summarizes a screening run.
type ScreenResult struct {
	Pairs    []ScreenedPair
	Tested   int
	Skipped  int
	Rejected int // significant after correction

	// BFSRuns counts the density-phase h-hop traversals the sweep
	// actually performed; MemoHits the density evaluations served from
	// the cross-pair memo instead of a fresh traversal. Together they
	// quantify the §4.4 traversal bill the memo saved.
	BFSRuns  int64
	MemoHits int64
}

// Screen tests every unordered pair of the given events for structural
// correlation, with multiple-testing correction — the sweep behind the
// paper's §5.4 case studies. Results come back ordered by corrected
// p-value; pairs sharing no information (degenerate reference
// populations, occurrence counts below MinOccurrences) are skipped, not
// failed.
func Screen(g *Graph, ev EventSet, opts ScreenOptions) (ScreenResult, error) {
	store, pairs, cfg := opts.sweepInputs(g, ev)
	res, err := screen.Run(g.g, store, pairs, cfg)
	if err != nil {
		return ScreenResult{}, err
	}
	return ScreenResult{
		Tested:   res.Tested,
		Skipped:  res.Skipped,
		Rejected: res.Rejected,
		BFSRuns:  res.BFSRuns,
		MemoHits: res.MemoHits,
		Pairs:    screenedPairs(res.Pairs),
	}, nil
}

// ScreenTopKOptions configures a planned (top-k or threshold) screen —
// see ScreenTopK. The embedded ScreenOptions keep their meaning except
// Bonferroni: a planned screen never observes the whole p-value family,
// so results always carry raw p-values and the field is ignored.
type ScreenTopKOptions struct {
	ScreenOptions

	// K selects top-k mode: return the K best pairs ranked by τ under
	// the tested tail (attraction ranks by τ, repulsion by −τ,
	// two-sided by |τ|). Zero selects threshold mode (see Theta).
	K int
	// Theta is the threshold-mode bar: return every pair whose score
	// reaches Theta. Only consulted when K == 0; setting both is an
	// error.
	Theta float64
	// BoundAlpha is the per-checkpoint risk of the statistical pruning
	// bound (default 1e-6). Negative disables it, leaving only the
	// deterministic completion bound — pruning then can never diverge
	// from the exhaustive sweep, at the cost of late termination.
	BoundAlpha float64
	// Stream, when non-nil, receives the current ranked result set
	// each time a completed pair improves it; calls are serialized and
	// arrive in order, so the ranking a caller sees never regresses.
	Stream func(top []ScreenedPair)
}

// ScreenTopKResult is a completed planned screen: the ranked pairs and
// the planner's work accounting. FullTests versus Candidates is the
// sweep work the planner saved — an exhaustive Screen pays a full test
// for every candidate.
type ScreenTopKResult struct {
	Pairs []ScreenedPair

	Candidates  int // candidate pairs considered
	FullTests   int // pairs whose whole sample was evaluated
	PrunedEarly int // pairs terminated at a bound checkpoint
	PrunedPrior int // positive-tail pairs whose vicinity overlap ruled them out before sampling
	Skipped     int // degenerate pairs
	Checkpoints int // bound evaluations performed

	DensityEvals int64
	BFSRuns      int64
	MemoHits     int64
}

// ScreenTopK answers the production form of the screening question —
// "which pairs correlate most" (top-k) or "which pairs reach θ"
// (threshold) — without paying the exhaustive O(K²) sweep. Candidate
// pairs are ordered by a cheap co-occurrence prior and evaluated
// best-first with confidence-bound early termination, and a
// positive-tail pair whose events' vicinities overlap too little to
// reach the bar is dropped before it samples anything; the returned
// ranking is provably the one Screen would produce (the differential
// battery in internal/screen pins bit-identical equivalence). Results
// carry raw p-values: multiple-testing correction needs the whole
// family, which a pruned sweep deliberately never computes. See
// docs/SCREENING.md for the design and the termination argument.
func ScreenTopK(g *Graph, ev EventSet, opts ScreenTopKOptions) (ScreenTopKResult, error) {
	store, pairs, base := opts.sweepInputs(g, ev)
	cfg := screen.PlanConfig{
		Config:     base,
		K:          opts.K,
		Theta:      opts.Theta,
		BoundAlpha: opts.BoundAlpha,
	}
	if opts.Stream != nil {
		cfg.Stream = func(top []screen.PairResult) {
			opts.Stream(screenedPairs(top))
		}
	}
	res, err := screen.Plan(g.g, store, pairs, cfg)
	out := ScreenTopKResult{
		Pairs:        screenedPairs(res.Pairs),
		Candidates:   res.Stats.Candidates,
		FullTests:    res.Stats.FullTests,
		PrunedEarly:  res.Stats.PrunedEarly,
		PrunedPrior:  res.Stats.PrunedPrior,
		Skipped:      res.Stats.Skipped,
		Checkpoints:  res.Stats.Checkpoints,
		DensityEvals: res.Stats.DensityEvals,
		BFSRuns:      res.Stats.BFSRuns,
		MemoHits:     res.Stats.MemoHits,
	}
	// A canceled plan carries the ranking over the pairs it finished
	// (see ScreenOptions.Ctx); every other error leaves it empty.
	return out, err
}

// sweepInputs builds the inputs Screen and ScreenTopK share: the event
// store, its candidate pairs and the sweep configuration. The planner
// ignores the correction Bonferroni selects.
func (opts ScreenOptions) sweepInputs(g *Graph, ev EventSet) (*events.Store, [][2]string, screen.Config) {
	b := events.NewBuilder(g.NumNodes())
	for name, nodes := range ev {
		for _, v := range nodes {
			b.Add(name, graph.NodeID(v))
		}
	}
	store := b.Build()
	cfg := screen.Config{
		H:              opts.H,
		SampleSize:     opts.SampleSize,
		Alpha:          opts.Alpha,
		Alternative:    opts.Tail.alternative(),
		MinOccurrences: opts.MinOccurrences,
		Workers:        opts.Workers,
		Seed:           opts.Seed,
		Progress:       opts.Progress,
		NoMemo:         opts.NoMemo,
		Ctx:            opts.Ctx,
		Engines:        opts.Engines.Internal(),
	}
	if opts.Bonferroni {
		cfg.Correction = screen.FWER
	}
	if cfg.Seed == 0 {
		cfg.Seed = screen.DefaultSeed
	}
	return store, screen.AllPairs(store, max(1, opts.MinOccurrences)), cfg
}

func screenedPairs(in []screen.PairResult) []ScreenedPair {
	out := make([]ScreenedPair, len(in))
	for i, p := range in {
		out[i] = ScreenedPair{
			A: p.A, B: p.B,
			OccA: p.OccA, OccB: p.OccB,
			Tau: p.Tau, Z: p.Z,
			P: p.P, AdjP: p.AdjP,
			Significant: p.Significant,
			Skipped:     p.Skipped,
		}
	}
	return out
}
