package core

import (
	"context"
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

// Options configures a TESC test. The zero value is not valid; use
// DefaultOptions and override.
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
	// Workers parallelizes the density phase (n independent h-hop BFS)
	// over a goroutine pool: 0 or 1 evaluates sequentially, negative
	// values select GOMAXPROCS. Results are identical either way.
	Workers int
	// Densities, when non-nil, replaces the built-in density evaluation
	// with a custom source — screen's cross-pair memo injects one that
	// reuses traversals across event pairs. Custom sources are only
	// valid with uniform samplers: the importance estimator needs the
	// per-node union counts a shared-vocabulary source cannot supply.
	// Ignores Workers.
	Densities DensitySource
	// Engines, when non-nil, supplies pooled BFS engines bound to the
	// problem's graph, so repeated tests stop allocating an O(|V|) mark
	// array each (tescd pools one per graph version). Used by the
	// built-in density evaluator and the BatchBFS sampler; ignored when
	// bound to a different graph.
	Engines *graph.EnginePool
	// Ctx, when non-nil, lets a caller abandon the test: the density
	// phase (the dominant cost — n independent h-hop BFS) checks it
	// between chunks of traversals and returns the context's cause
	// wrapped in ErrCanceled. Nil means run to completion.
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

// DefaultOptions mirrors the paper's experimental setup: n = 900
// reference nodes, α = 0.05, Batch BFS sampling.
func DefaultOptions(h int) Options {
	return Options{
		H:           h,
		SampleSize:  900,
		Alternative: stats.TwoSided,
		Alpha:       0.05,
	}
}

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
	// phase's h-hop traversal count — N with the built-in evaluator,
	// possibly fewer with a memoizing Options.Densities source (screen's
	// cross-pair memo attributes a shared node's traversal to the first
	// pair that needed it).
	SamplerStats SamplerStats
	DensityBFS   int64
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

// Test runs the full TESC hypothesis test of §3 on problem p: sample
// reference nodes, evaluate densities, aggregate concordance, assess
// significance.
func Test(p *Problem, opts Options) (Result, error) {
	if p == nil {
		return Result{}, fmt.Errorf("tesc: nil problem")
	}
	if opts.H < 1 {
		return Result{}, fmt.Errorf("tesc: vicinity level H must be >= 1, got %d", opts.H)
	}
	if opts.SampleSize < 2 {
		return Result{}, fmt.Errorf("tesc: sample size must be >= 2, got %d", opts.SampleSize)
	}
	if opts.Alpha <= 0 || opts.Alpha >= 1 {
		return Result{}, fmt.Errorf("tesc: alpha must be in (0,1), got %g", opts.Alpha)
	}
	sampler := opts.Sampler
	if sampler == nil {
		sampler = &BatchBFSSampler{Engines: opts.Engines}
	}
	rng := opts.Rand
	if rng == nil {
		rng = rand.New(rand.NewPCG(0x7e5c, 0x7e5c))
	}

	if err := ctxErr(opts.Ctx); err != nil {
		return Result{}, err
	}

	sample, err := sampler.SampleReferences(p, opts.H, opts.SampleSize, rng)
	if err != nil {
		return Result{}, err
	}
	if err := ctxErr(opts.Ctx); err != nil {
		return Result{}, err
	}

	var sa, sb []float64
	var ds []Density
	var densityBFS int64
	if opts.Densities != nil {
		if sample.Weighted() {
			return Result{}, fmt.Errorf("tesc: custom density sources do not support importance-weighted samples")
		}
		before := opts.Densities.Traversals()
		sa, sb, ds = opts.Densities.EvalAll(sample.Nodes)
		densityBFS = opts.Densities.Traversals() - before
	} else {
		var eval *DensityEvaluator
		if opts.Engines != nil && opts.Engines.Graph() == p.G {
			bfs := opts.Engines.Get()
			defer opts.Engines.Put(bfs)
			eval = NewDensityEvaluatorBFS(p, opts.H, bfs)
			eval.Engines = opts.Engines // parallel workers draw from the pool too
		} else {
			eval = NewDensityEvaluator(p, opts.H)
		}
		if opts.Workers == 0 || opts.Workers == 1 {
			if opts.Ctx != nil {
				sa, sb, ds, err = eval.EvalAllCtx(opts.Ctx, sample.Nodes)
			} else {
				sa, sb, ds = eval.EvalAll(sample.Nodes)
			}
		} else {
			sa, sb, ds, err = eval.EvalAllParallelCtx(opts.Ctx, sample.Nodes, opts.Workers)
		}
		if err != nil {
			return Result{}, err
		}
		densityBFS = eval.BFSCount
	}

	res := Result{
		N:            len(sample.Nodes),
		Alternative:  opts.Alternative,
		Alpha:        opts.Alpha,
		SamplerName:  sampler.Name(),
		Weighted:     sample.Weighted(),
		SamplerStats: sample.Stats,
		DensityBFS:   densityBFS,
		SA:           sa,
		SB:           sb,
		Nodes:        sample.Nodes,
	}

	if opts.Statistic == SpearmanRho {
		if sample.Weighted() {
			return Result{}, fmt.Errorf("tesc: Spearman's rho is not available with importance-weighted samples")
		}
		sp := stats.Spearman(sa, sb)
		res.Tau = sp.Rho
		res.Z = sp.Z
	} else if !sample.Weighted() {
		// KendallAuto guarantees the O(n log n) path for n >= the pinned
		// cutoff; the quadratic variant is reserved for tiny samples
		// where its constant factors win (see stats.KendallNaiveCutoff).
		k := stats.KendallAuto(sa, sb)
		res.Tau = k.Tau
		res.Z = k.Z
	} else {
		// Weighted estimator t̃ with ω_i = w_i / p(r_i). p(r_i) =
		// |V^h_{r_i} ∩ Va∪b| / Nsum; Nsum is constant and cancels in the
		// ω products, so the union counts from the shared density BFS
		// suffice.
		omega := make([]float64, len(sample.Nodes))
		for i := range omega {
			cu := ds[i].CountUnion
			if cu < 1 {
				// A reference node produced by importance sampling always
				// sees the event node whose vicinity it was drawn from.
				return Result{}, fmt.Errorf("tesc: internal: sampled out-of-sight node %d", sample.Nodes[i])
			}
			omega[i] = float64(sample.Freq[i]) / float64(cu)
		}
		wt := stats.WeightedTau(sa, sb, omega)
		res.Tau = wt.Tau
		// Significance: t̃ surrogates t (§4.2), so assess it against the
		// same tie-corrected null distribution over the n distinct
		// reference nodes.
		varNum := stats.NumeratorVariance(len(sa), stats.TieSizes(sa), stats.TieSizes(sb))
		res.Z = zFromTau(res.Tau, len(sa), varNum)
	}

	res.P = stats.PValueZ(res.Z, opts.Alternative)
	res.Significant = res.P < opts.Alpha
	return res, nil
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
