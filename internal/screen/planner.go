package screen

import (
	"math"
	"slices"
	"sort"
	"sync"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// This file is the top-k screening planner's policy — the bar, the
// bounds and the prior — for the production questions "which pairs
// correlate most" and "did anything cross θ"; sweep.go is the engine it
// shares with Run's exhaustive K² sweep. The planner orders
// candidate pairs by a cheap co-occurrence prior, evaluates densities
// incrementally over each pair's reference sample, and terminates a
// pair as soon as an upper bound on its final score falls below the
// current bar (the k-th best completed score, or θ). A positive-tail
// pair meets one bound before it draws anything:
//
//   - priorTauBound — the vicinity-overlap prior: only references
//     within h of both events can take part in a concordant pair, so
//     how many of them the sample can hold caps τ (see the function).
//
// Two bounds are intersected at every checkpoint:
//
//   - stats.TauCompletionInterval — deterministic: the unevaluated
//     concordance terms are each in {−1,0,+1}, so the final statistic
//     is boxed regardless of what the remaining references contain.
//   - stats.TauPrefixConfidenceInterval — statistical, derived from
//     the §3.1 variance bound (TauVarianceUpperBound); it is what
//     terminates hopeless pairs early, at a per-checkpoint risk of
//     BoundAlpha.
//
// Because a pair is pruned only when its upper bound is STRICTLY below
// the bar, and the bar never exceeds the final k-th best exact score,
// a pruned pair provably cannot belong to the top k (ties at the bar
// always run to completion). Completed pairs draw the exact reference
// sample the exhaustive sweep draws (same pairSeed rng, same BatchBFS
// sampler) and push the same density vectors through the same Kendall
// kernel, so their Tau/Z/P are bit-identical — the differential battery
// in planner_diff_test.go pins both against a test-only reference.
// See docs/SCREENING.md for the full argument.

// PlanConfig parameterizes a planned (top-k or threshold) screening
// run. The embedded Config fields keep their Run semantics, with two
// exceptions: Correction is ignored — a pruned sweep never observes
// the whole p-value family, so planned results carry raw p-values
// (AdjP == P) — and Progress reports every candidate pair exactly
// once whether it was tested, pruned, or skipped.
type PlanConfig struct {
	Config

	// K selects top-k mode: return the K best pairs by score. Zero
	// selects threshold mode (see Theta); negative is an error.
	K int
	// Theta is the threshold-mode bar: return every pair whose score
	// reaches Theta. Consulted only when K == 0 (the two modes are
	// exclusive; combining them is an error so a forgotten field can
	// never silently change top-k semantics).
	Theta float64
	// BoundAlpha is the per-checkpoint risk of the statistical pruning
	// bound (default 1e-6). Smaller values prune later but make a
	// bound violation — the only way a planned result can differ from
	// the exhaustive sweep — correspondingly rarer. Negative disables
	// the statistical bound entirely, leaving the deterministic
	// completion bound: pruning then never lies, at the cost of only
	// terminating pairs late in their sample.
	BoundAlpha float64
	// Stream, when non-nil, is called with the current ranked result
	// set each time a completed pair improves it — top-k results
	// stream out while the sweep runs. Calls are serialized and arrive
	// in the order the snapshots were cut, so a later snapshot never
	// ranks fewer completed pairs than an earlier one. The slice is the
	// callback's to keep; keep the callback cheap, it is invoked on the
	// worker path.
	Stream func(top []PairResult)

	// firstCheckpoint is the first sample prefix at which bounds are
	// evaluated (default defaultFirstCheckpoint); the schedule doubles
	// from there up to half the sample, and with the deterministic
	// bound alone adds the eighths past half, where that bound
	// sharpens (checkpointSchedule). Must be ≥ 2 when set; tests lower
	// it so small samples still reach checkpoints.
	firstCheckpoint int
}

// PlanStats accounts for the planner's work. Candidates is always
// Skipped + PrunedPrior + PrunedEarly + FullTests.
type PlanStats struct {
	// Candidates is the number of candidate pairs considered.
	Candidates int
	// FullTests counts pairs whose whole reference sample was
	// evaluated — the pairs an exhaustive sweep would have paid for
	// every candidate.
	FullTests int
	// PrunedEarly counts pairs terminated at a bound checkpoint.
	PrunedEarly int
	// PrunedPrior counts positive-tail pairs discarded before their
	// draw: their vicinity-overlap bound (priorTauBound) was already
	// below the bar.
	PrunedPrior int
	// Skipped counts degenerate pairs (below MinOccurrences, empty
	// reference populations, ...) — the same pairs Run marks Skipped.
	Skipped int
	// Checkpoints counts bound evaluations performed.
	Checkpoints int
	// DensityEvals counts reference-node density evaluations paid
	// (from the memo or fresh); an exhaustive sweep pays one per
	// sampled reference of every candidate.
	DensityEvals int64
	// BFSRuns / MemoHits mirror Result's density-phase accounting:
	// every evaluation is one or the other, so they sum to
	// DensityEvals, counted for this sweep alone even when other
	// sweeps share its memo.
	BFSRuns  int64
	MemoHits int64
}

// PlanResult is a completed planned screen: the ranked result pairs
// (score descending, ties by event names), the skipped candidates with
// their reasons (in input order), and the work accounting. Pruned
// pairs appear in neither list.
type PlanResult struct {
	Pairs   []PairResult
	Skipped []PairResult
	Stats   PlanStats
}

// rankScore maps a pair's τ to its ranking score under the tested
// alternative: attraction ranks by τ, repulsion by −τ, two-sided by
// |τ|. Ranking is τ-derived rather than p-derived deliberately: BH/
// Bonferroni adjustment depends on the whole tested family, which a
// pruned sweep never observes, while τ is a pure per-pair statistic.
func rankScore(alt stats.Alternative, tau float64) float64 {
	switch alt {
	case stats.Greater:
		return tau
	case stats.Less:
		return -tau
	default:
		return math.Abs(tau)
	}
}

// rankLess is the planner's total order: score descending, then event
// names — deterministic for any two distinct pairs, which is what
// makes "the top k" well defined under ties at the k-th place.
func rankLess(a, b *PairResult, alt stats.Alternative) bool {
	sa, sb := rankScore(alt, a.Tau), rankScore(alt, b.Tau)
	if sa != sb {
		return sa > sb
	}
	if a.A != b.A {
		return a.A < b.A
	}
	return a.B < b.B
}

// scoreInterval maps a τ interval to a score interval under the
// alternative's objective.
func scoreInterval(alt stats.Alternative, lo, hi float64) (sLo, sHi float64) {
	switch alt {
	case stats.Greater:
		return lo, hi
	case stats.Less:
		return -hi, -lo
	default:
		sHi = math.Max(math.Abs(lo), math.Abs(hi))
		if lo <= 0 && hi >= 0 {
			sLo = 0
		} else {
			sLo = math.Min(math.Abs(lo), math.Abs(hi))
		}
		return sLo, sHi
	}
}

// checkpointSchedule returns, in buf's storage, the sorted prefix
// lengths at which a pair's bounds are evaluated, each strictly below
// n — the full sample is the test itself, not a checkpoint. Every
// checkpoint costs a Knight pass over its whole prefix, so the
// schedule holds only the checkpoints the active bound can use:
//
//   - statistical (the default BoundAlpha): doubling from first while
//     m ≤ n/2. The §3.1 interval prunes early or not at all, and past
//     n/2 a checkpoint's pass over m keys costs more than the ≤ n − m
//     density reads it could save.
//   - deterministic only (BoundAlpha < 0): doubling from first, then
//     the eighths of the sample from n/2, where the completion bound
//     sharpens (at m = 7n/8 it boxes the final statistic within
//     ±0.23); it prunes late or not at all.
func checkpointSchedule(buf []int, first, n int, statistical bool) []int {
	last := n - 1
	if statistical {
		last = n / 2
	}
	cps := buf[:0]
	for m := first; m <= last; m *= 2 {
		cps = append(cps, m)
	}
	if statistical {
		return cps
	}
	for num := 4; num < 8; num++ {
		if m := n * num / 8; m >= first && m < n && !slices.Contains(cps, m) {
			cps = append(cps, m)
		}
	}
	slices.Sort(cps)
	return cps
}

// defaultBoundAlpha is the per-checkpoint risk of the statistical
// pruning bound. At 1e-6 the normal quantile is ≈ 4.9, wide enough
// that a violation — the only way a planned result can diverge from
// the exhaustive sweep — needs a ≈ 5σ density fluctuation.
const defaultBoundAlpha = 1e-6

// defaultFirstCheckpoint is the first sample prefix at which a pair's
// bounds are evaluated when PlanConfig leaves firstCheckpoint unset.
const defaultFirstCheckpoint = 64

// planBar is the shared pruning bar: in top-k mode the k-th best
// COMPLETED exact score (−Inf until k pairs completed), in threshold
// mode the constant θ. It only ever rises, which is what makes
// strict-inequality pruning sound.
type planBar struct {
	mu     sync.Mutex
	k      int       // 0 = threshold mode
	theta  float64   // threshold-mode bar
	scores []float64 // top-k mode only: completed scores, descending
	alt    stats.Alternative
	// stream, when non-nil, receives ranked snapshots cut from
	// completed, which is kept only for it.
	stream    func([]PairResult)
	completed []PairResult
	// streamMu serializes stream calls: offer takes it before it
	// releases mu, so snapshots arrive one at a time, in the order they
	// were cut.
	streamMu sync.Mutex
}

func (b *planBar) bar() float64 {
	if b.k == 0 {
		return b.theta
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.scores) < b.k {
		return math.Inf(-1)
	}
	return b.scores[b.k-1]
}

// offer records a completed pair's exact score and, when it improves
// the visible result set, streams a fresh ranked snapshot.
func (b *planBar) offer(res PairResult) {
	score := rankScore(b.alt, res.Tau)
	b.mu.Lock()
	if b.k > 0 {
		// insert into the descending score list; θ needs none
		i := sort.Search(len(b.scores), func(i int) bool { return b.scores[i] < score })
		b.scores = append(b.scores, 0)
		copy(b.scores[i+1:], b.scores[i:])
		b.scores[i] = score
	}
	var snapshot []PairResult
	if b.stream != nil {
		b.completed = append(b.completed, res)
		if b.visible(score) {
			snapshot = rankCut(append([]PairResult(nil), b.completed...), b.k, b.theta, b.alt)
		}
	}
	if snapshot == nil {
		b.mu.Unlock()
		return
	}
	b.streamMu.Lock()
	b.mu.Unlock()
	defer b.streamMu.Unlock()
	b.stream(snapshot)
}

// visible reports whether a completed score changes the result set a
// client can see (top-k membership, or θ reached).
func (b *planBar) visible(score float64) bool {
	if b.k == 0 {
		return score >= b.theta
	}
	if len(b.scores) <= b.k {
		return true
	}
	return score >= b.scores[b.k-1]
}

// rankCut sorts completed pairs into rank order, in place, and cuts the
// result set: the top k, or (k == 0) everything scoring at least θ.
func rankCut(out []PairResult, k int, theta float64, alt stats.Alternative) []PairResult {
	sort.Slice(out, func(i, j int) bool { return rankLess(&out[i], &out[j], alt) })
	if k > 0 {
		return out[:min(k, len(out))]
	}
	cut := len(out)
	for i, r := range out {
		if rankScore(alt, r.Tau) < theta {
			cut = i
			break
		}
	}
	return out[:cut]
}

// planCandidate is one queued pair — an index into the sweep's
// results, which already name the pair and its occurrence counts — with
// its precomputed priority.
type planCandidate struct {
	idx      int
	priority float64
}

// Plan runs the prioritized top-k / threshold screen over the given
// candidate pairs. The returned pairs carry raw p-values (AdjP == P,
// Significant = P < Alpha); see PlanConfig for the two modes. A
// canceled plan is the one abandonment that keeps its partial work:
// every ranked pair completed its full exact test, so the ranking is
// sound over the pairs evaluated, and it comes back alongside the
// error.
func Plan(g *graph.Graph, store *events.Store, pairs [][2]string, cfg PlanConfig) (PlanResult, error) {
	results, st, err := sweep(g, store, pairs, cfg)
	var tested, skipped []PairResult
	for _, r := range results {
		if r.Skipped == "" {
			tested = append(tested, r)
		} else {
			skipped = append(skipped, r)
		}
	}
	return PlanResult{Pairs: rankCut(tested, cfg.K, cfg.Theta, cfg.Alternative), Skipped: skipped, Stats: st}, err
}

// checkpointScoreBound is the planner's pruning core: given the
// Kendall statistic of the first m of n sampled references, it boxes
// the pair's final score. The deterministic completion interval always
// holds; when boundAlpha > 0 the statistical prefix interval is
// intersected with it — unless the intersection is empty (the
// statistical interval has already lied), in which case the
// deterministic box stands alone. Pure and lock-free so the
// adversarial tests can drive it with synthetic density prefixes.
func checkpointScoreBound(alt stats.Alternative, k stats.TauResult, m, n int, boundAlpha float64) (sLo, sHi float64) {
	lo, hi := stats.TauCompletionInterval(k.Concordant-k.Discordant, m, n)
	if boundAlpha > 0 {
		cLo, cHi := stats.TauPrefixConfidenceInterval(k.Tau, m, n, boundAlpha)
		if math.Max(lo, cLo) <= math.Min(hi, cHi) {
			lo, hi = math.Max(lo, cLo), math.Min(hi, cHi)
		}
	}
	return scoreInterval(alt, lo, hi)
}

// priorTauBound is the planner's prior pass: an upper bound on the τ of
// any n-reference sample of a pair whose events' h-vicinities share
// overlap nodes (|V^h(Va)| + |V^h(Vb)| − |V^h(Va∪Vb)|), known before a
// single reference is drawn. With unit intensities a density is
// positive exactly when its count is, and every reference is within h
// of some occurrence, so a reference outside the overlap is zero in
// exactly one key. Two such references zero in the same key tie in it,
// and one zero in each key is discordant: every concordant pair needs a
// reference from the overlap. A sample holds b = min(overlap, n) of
// those, so C ≤ C(b,2) + b(n−b) and τ = (C−D)/C(n,2) ≤
// b(2n−b−1)/(n(n−1)). The bound caps only τ from above, so it serves
// the positive tail alone. Samples of fewer than two references get 1:
// they are skipped, never pruned.
func priorTauBound(overlap, n int) float64 {
	if n < 2 {
		return 1
	}
	b, nn := int64(min(overlap, n)), int64(n)
	return float64(b*(2*nn-b-1)) / float64(nn*(nn-1))
}
