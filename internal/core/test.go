package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"

	"tesc/internal/graph"
	"tesc/internal/stats"
)

// Statistic selects the rank-correlation statistic aggregating the
// reference densities.
type Statistic int

const (
	// KendallTau is the paper's statistic (Eq. 3/4, tie-corrected normal
	// null via Eq. 6).
	KendallTau Statistic = iota
	// SpearmanRho is the alternative §8 mentions ("Another rank
	// correlation statistic, Spearman's ρ, could also be used"), with
	// the large-sample normal approximation z = ρ√(n−1). Not available
	// with importance-weighted samples.
	SpearmanRho
)

// Options configures a TESC test. The zero value is not valid.
type Options struct {
	// H is the vicinity level (≥ 1). The paper focuses on h = 1, 2, 3
	// because real networks' small-world growth makes larger vicinities
	// cover most of the graph (§4.2).
	H int
	// SampleSize is the number n of reference nodes to draw. The paper
	// uses 900 throughout (§5.2); Var(t) ≤ 2(1−τ²)/n regardless of the
	// population size, so n need not scale with the graph.
	SampleSize int
	// Sampler selects the reference-node strategy; nil means Batch BFS.
	Sampler Sampler
	// Alternative selects the tested alternative hypothesis; the paper's
	// evaluation uses one-tailed tests (Greater for attraction, Less for
	// repulsion).
	Alternative stats.Alternative
	// Alpha is the significance level (default 0.05, the paper's §5.2).
	Alpha float64
	// Rand supplies randomness; nil means a fixed-seed PCG, making runs
	// reproducible by default.
	Rand *rand.Rand
	// Statistic selects Kendall's τ (default, the paper's measure) or
	// Spearman's ρ.
	Statistic Statistic
	// Engines, when non-nil, supplies pooled BFS engines bound to the
	// problem's graph, so repeated tests stop allocating an O(|V|) mark
	// array each (tescd pools one per graph version). The test's one
	// engine serves the sampler and the density pass; ignored when bound
	// to a different graph.
	Engines *graph.EnginePool
	// Counts, when its Memo is non-nil, serves the density pass's
	// counts from a CountMemo of the problem's event pair at level H
	// and keeps the ones the pass computes (tescd lends one per pair).
	// Only unit-intensity tests whose sampler carries a vicinity index
	// covering H (importance and rejection) read it; densities, τ, z
	// and p are identical with or without it.
	Counts CountRead
	// Ctx, when non-nil, lets a caller abandon the test: the rejection,
	// importance and whole-graph draw loops check it every 64 draws and
	// the density phase between chunks of traversals (one per reference
	// node, or one per event node from the event side); either stops
	// with the context's cause wrapped in ErrCanceled. Nil means run to
	// completion.
	Ctx context.Context
}

// ErrCanceled marks a test abandoned through Options.Ctx. Match with
// errors.Is(err, ErrCanceled); the context's cause is wrapped, so
// errors.Is(err, context.Canceled) works too.
var ErrCanceled = fmt.Errorf("tesc: test canceled")

// ctxErr reports the wrapped cancellation cause when ctx is non-nil
// and done, else nil.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return fmt.Errorf("%w: %w", ErrCanceled, context.Cause(ctx))
	default:
		return nil
	}
}

// ErrSpearmanWeighted means a test asked for Spearman's ρ over an
// importance-weighted sample, which has no weighted ρ. Test returns it
// before drawing the sample.
var ErrSpearmanWeighted = errors.New("tesc: Spearman's rho is not available with importance-weighted samples")

// Result reports a TESC test outcome.
type Result struct {
	// Tau is the estimated correlation: t(a,b) (Eq. 4) for uniform
	// samples, t̃(a,b) (Eq. 8) for importance-weighted samples.
	Tau float64
	// Z is the significance score of Eq. 7, using the tie-corrected null
	// variance of Eq. 6.
	Z float64
	// P is the p-value under Alternative.
	P float64
	// Significant is P < Alpha.
	Significant bool
	// N is the number of distinct reference nodes actually used.
	N int
	// Alternative and Alpha echo the test configuration.
	Alternative stats.Alternative
	Alpha       float64
	// SamplerName identifies the reference-selection strategy.
	SamplerName string
	// Weighted reports whether the t̃ estimator was used.
	Weighted bool
	// SamplerStats records the sampler's work; DensityBFS the density
	// phase's traversals actually run: N, one per reference node, or
	// |Va∪b|, one per event node, when an h = 1 pass ran from the event
	// side (a traversal there is the node's adjacency row). With
	// Options.Counts the pass runs only over the nodes the memo did not
	// serve, and DensityMemoHits counts the ones it did.
	SamplerStats    SamplerStats
	DensityBFS      int64
	DensityMemoHits int64
	// SA, SB are the reference-node density vectors (diagnostics; length
	// N, aligned with the sampled nodes).
	SA, SB []float64
	// Nodes are the reference nodes used.
	Nodes []graph.NodeID
}

// Verdict classifies the outcome as "positive", "negative" or
// "independent" at the configured level: positive/negative require
// significance with the matching sign.
func (r Result) Verdict() string {
	if !r.Significant {
		return "independent"
	}
	if r.Z > 0 {
		return "positive"
	}
	return "negative"
}

// String renders a one-line summary.
func (r Result) String() string {
	return fmt.Sprintf("tau=%.4f z=%.2f p=%.4g (%s, n=%d, %s)",
		r.Tau, r.Z, r.P, r.Verdict(), r.N, r.SamplerName)
}

// Validate reports the error Test returns for opts before it draws:
// H below 1, a sample size below 2, α outside (0,1) or NaN, or
// Spearman's ρ over an importance sample (ErrSpearmanWeighted). Only
// the sampler's type is read, so a caller can check a request before
// it fetches the index the sampler will need.
func (opts Options) Validate() error {
	if opts.H < 1 {
		return fmt.Errorf("tesc: vicinity level H must be >= 1, got %d", opts.H)
	}
	if opts.SampleSize < 2 {
		return fmt.Errorf("tesc: sample size must be >= 2, got %d", opts.SampleSize)
	}
	if !(opts.Alpha > 0 && opts.Alpha < 1) { // NaN too: P < NaN is never true
		return fmt.Errorf("tesc: alpha must be in (0,1), got %g", opts.Alpha)
	}
	if _, ok := opts.Sampler.(*ImportanceSampler); ok && opts.Statistic == SpearmanRho {
		return ErrSpearmanWeighted
	}
	return nil
}

// Test runs the full TESC hypothesis test of §3 on problem p: sample
// reference nodes, evaluate densities, aggregate concordance, assess
// significance.
func Test(p *Problem, opts Options) (Result, error) {
	if p == nil {
		return Result{}, fmt.Errorf("tesc: nil problem")
	}
	if err := opts.Validate(); err != nil {
		return Result{}, err
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = &BatchBFSSampler{}
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewPCG(0x7e5c, 0x7e5c))
	}

	if err := ctxErr(opts.Ctx); err != nil {
		return Result{}, err
	}

	bfs := opts.Engines.Acquire(p.G)
	defer opts.Engines.Put(bfs)
	var sample RefSample
	var err error
	if cs, ok := sampler.(ctxSampler); ok {
		sample, err = cs.sampleCtx(opts.Ctx, p, opts.H, opts.SampleSize, rng, bfs)
	} else {
		sample, err = sampler.SampleReferences(p, opts.H, opts.SampleSize, rng, bfs)
	}
	if err != nil {
		return Result{}, err
	}

	// The density pass runs from the side with the smaller ball sum at
	// h = 1 (see eventSideFree), else one BFS per reference node. Either
	// checks opts.Ctx before its first traversal, so a test abandoned
	// during a batch-BFS sample stops here.
	eval := NewDensityEvaluatorBFS(p, opts.H, bfs)
	// Of each node's Density record the test reads only the weighted
	// estimator's union count |V^h_r ∩ Va∪b| for p(r), kept in omega
	// until it becomes ω below.
	var omega []float64
	var keep func(i int, d Density)
	if sample.Weighted() {
		omega = make([]float64, len(sample.Nodes))
		keep = func(i int, d Density) { omega[i] = float64(d.CountUnion) }
	}
	var sa, sb []float64
	var hits int
	if idx := countIndex(p, opts.H, sampler, opts.Counts); idx != nil {
		sa, sb, hits, err = eval.evalCounts(opts.Ctx, opts.Counts, idx, sample.Nodes, keep)
	} else if eventSideFree(p, opts.H) && eventSideCheaper(p.G, sample.Nodes, p.EventNodes()) {
		sa, sb, err = eval.evalEvents(opts.Ctx, sample.Nodes, keep)
	} else {
		sa, sb, err = eval.evalAll(opts.Ctx, sample.Nodes, keep)
	}
	if err != nil {
		return Result{}, err
	}

	res := Result{
		N:               len(sample.Nodes),
		Alternative:     opts.Alternative,
		Alpha:           opts.Alpha,
		SamplerName:     sampler.Name(),
		Weighted:        sample.Weighted(),
		SamplerStats:    sample.Stats,
		DensityBFS:      eval.BFSCount,
		DensityMemoHits: int64(hits),
		SA:              sa,
		SB:              sb,
		Nodes:           sample.Nodes,
	}

	if err := res.score(opts.Statistic, sample.Freq, omega); err != nil {
		return Result{}, err
	}
	return res, nil
}

// score aggregates res.SA and res.SB with stat, or with the weighted
// estimator t̃ when freq (the sample's importance frequencies) is
// non-nil, and fills Tau, Z, P and Significant. A weighted sample's
// omega holds each node's union count |V^h_r ∩ Va∪b| on entry and ω on
// return.
func (res *Result) score(stat Statistic, freq []int, omega []float64) error {
	sa, sb := res.SA, res.SB
	if stat == SpearmanRho {
		if freq != nil {
			return ErrSpearmanWeighted
		}
		sp := stats.Spearman(sa, sb)
		res.Tau = sp.Rho
		res.Z = sp.Z
	} else if freq == nil {
		k := stats.Kendall(sa, sb)
		res.Tau = k.Tau
		res.Z = k.Z
	} else {
		// Weighted estimator t̃ with ω_i = w_i / p(r_i). p(r_i) =
		// |V^h_{r_i} ∩ Va∪b| / Nsum; Nsum is constant and cancels in the
		// ω products, so the union counts from the shared density pass
		// suffice.
		for i, cu := range omega {
			if cu < 1 {
				// A reference node produced by importance sampling always
				// sees the event node whose vicinity it was drawn from.
				return fmt.Errorf("tesc: internal: sampled out-of-sight node %d", res.Nodes[i])
			}
			omega[i] = float64(freq[i]) / cu
		}
		wt := stats.WeightedTau(sa, sb, omega)
		res.Tau = wt.Tau
		// Significance: t̃ surrogates t (§4.2), so assess it against the
		// same tie-corrected null distribution over the n distinct
		// reference nodes, whose tie groups WeightedTau reports.
		varNum := stats.NumeratorVariance(len(sa), wt.TiesX, wt.TiesY)
		res.Z = zFromTau(res.Tau, len(sa), varNum)
	}

	res.P = stats.PValueZ(res.Z, res.Alternative)
	res.Significant = res.P < res.Alpha
	return nil
}

// zFromTau converts a τ-scale estimate to a z-score using the
// tie-corrected numerator variance: z = τ·n0/σ_c, the Eq. 7 statistic
// expressed for estimators reported on the τ scale.
func zFromTau(tau float64, n int, varNum float64) float64 {
	if varNum <= 0 {
		return 0
	}
	n0 := float64(n) * float64(n-1) / 2
	return stats.ZFromNumerator(tau*n0, varNum)
}
