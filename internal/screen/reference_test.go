package screen

import (
	"math/rand/v2"
	"sort"
	"testing"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// referenceSweep is the oracle the differential tests hold the sweep
// engine to. It shares none of the engine's machinery — no worker pool,
// memo, checkpoint schedule or bar: pair by pair, in order, it builds
// the problem with core.NewProblem and runs core.Test on the pair's
// pairSeed PCG stream with the default sampler and density evaluator.
// It returns the raw results in input order (AdjP == P, Significant =
// P < Alpha, skipped pairs carrying their reason) and the density
// traversals a memo-less sweep pays, which it must match exactly: one
// reference-side BFS per reference node. That is len(tr.Nodes), not
// tr.DensityBFS, because core.Test may count densities from the event
// side instead.
func referenceSweep(t testing.TB, g *graph.Graph, store *events.Store, pairs [][2]string, cfg Config) ([]PairResult, int64) {
	t.Helper()
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 900
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	minOcc := max(cfg.MinOccurrences, 1)
	out := make([]PairResult, len(pairs))
	var bfs int64
	for i, pair := range pairs {
		r := PairResult{A: pair[0], B: pair[1], OccA: store.Count(pair[0]), OccB: store.Count(pair[1])}
		if r.OccA < minOcc || r.OccB < minOcc {
			r.Skipped = "below occurrence threshold"
		} else if p, err := core.NewProblem(g, store.Set(pair[0]), store.Set(pair[1])); err != nil {
			r.Skipped = err.Error()
		} else {
			seed := pairSeed(cfg.Seed, pair[0], pair[1])
			tr, err := core.Test(p, core.Options{
				H:           cfg.H,
				SampleSize:  cfg.SampleSize,
				Alternative: cfg.Alternative,
				Alpha:       cfg.Alpha,
				Rand:        rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15)),
			})
			if err != nil {
				r.Skipped = err.Error()
			} else {
				r.Tau, r.Z, r.P = tr.Tau, tr.Z, tr.P
				r.AdjP, r.Significant = tr.P, tr.Significant
				bfs += int64(len(tr.Nodes))
			}
		}
		out[i] = r
	}
	return out, bfs
}

// referenceRun is the Result Run must return for the reference's raw
// results: the correction applied over the tested pairs, then tested
// pairs by adjusted p, |Z| descending and names, skipped pairs last.
func referenceRun(raw []PairResult, cfg Config) Result {
	alpha := cfg.Alpha
	if alpha == 0 {
		alpha = 0.05
	}
	pairs := append([]PairResult(nil), raw...)
	var tested []*PairResult
	var ps []float64
	for i := range pairs {
		if pairs[i].Skipped == "" {
			tested = append(tested, &pairs[i])
			ps = append(ps, pairs[i].P)
		}
	}
	adj := ps
	switch cfg.Correction {
	case FDR:
		adj = stats.BenjaminiHochberg(ps)
	case FWER:
		adj = stats.Bonferroni(ps)
	}
	res := Result{Tested: len(tested), Skipped: len(pairs) - len(tested)}
	for k, p := range tested {
		p.AdjP = adj[k]
		p.Significant = adj[k] < alpha
		if p.Significant {
			res.Rejected++
		}
	}
	key := func(p PairResult) (bool, float64, float64) {
		z := p.Z
		if z < 0 {
			z = -z
		}
		return p.Skipped != "", p.AdjP, -z
	}
	sort.Slice(pairs, func(i, j int) bool {
		si, ai, zi := key(pairs[i])
		sj, aj, zj := key(pairs[j])
		switch {
		case si != sj:
			return sj
		case ai != aj:
			return ai < aj
		case zi != zj:
			return zi < zj
		case pairs[i].A != pairs[j].A:
			return pairs[i].A < pairs[j].A
		}
		return pairs[i].B < pairs[j].B
	})
	res.Pairs = pairs
	return res
}

// referenceRanked is the planner's expected full ranking: the
// reference's tested pairs in rank order (score under the alternative
// descending, then names).
func referenceRanked(raw []PairResult, alt stats.Alternative) []PairResult {
	var out []PairResult
	for _, p := range raw {
		if p.Skipped == "" {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return rankLess(&out[i], &out[j], alt) })
	return out
}

// sameRun fails unless got equals want in every reported pair field, in
// order, and in the Tested/Skipped/Rejected summary.
func sameRun(t *testing.T, label string, got, want Result) {
	t.Helper()
	if got.Tested != want.Tested || got.Skipped != want.Skipped || got.Rejected != want.Rejected {
		t.Fatalf("%s: summary tested/skipped/rejected %d/%d/%d, reference %d/%d/%d",
			label, got.Tested, got.Skipped, got.Rejected, want.Tested, want.Skipped, want.Rejected)
	}
	if len(got.Pairs) != len(want.Pairs) {
		t.Fatalf("%s: %d pairs, reference %d", label, len(got.Pairs), len(want.Pairs))
	}
	for i := range want.Pairs {
		if got.Pairs[i] != want.Pairs[i] {
			t.Fatalf("%s: pair %d diverged from the reference\n got %+v\nwant %+v", label, i, got.Pairs[i], want.Pairs[i])
		}
	}
}
