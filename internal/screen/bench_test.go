package screen

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/stats"
)

// sweep100k is the PR 4 screening benchmark substrate: the ~100k-node
// coauthorship surrogate with a K=8 event vocabulary (500 occurrences
// each) concentrated in a 2k-node community region — §5.4's keyword
// workload shape, where event vicinities overlap and cross-pair
// reference samples revisit the same nodes. Built once; only -bench
// pays.
var sweep100k struct {
	once  sync.Once
	g     *graph.Graph
	store *events.Store
	pairs [][2]string
}

func sweep100kSetup(tb testing.TB) {
	sweep100k.once.Do(func() {
		rng := rand.New(rand.NewPCG(7, 0xc0a0))
		g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1.0), rng)
		b := events.NewBuilder(g.NumNodes())
		for e := 0; e < 8; e++ {
			name := fmt.Sprintf("ev-%d", e)
			for k := 0; k < 500; k++ {
				b.Add(name, graph.NodeID(rng.IntN(2000)))
			}
		}
		sweep100k.g = g
		sweep100k.store = b.Build()
		sweep100k.pairs = AllPairs(sweep100k.store, 1)
	})
}

func runSweep(b *testing.B, noMemo bool) {
	sweep100kSetup(b)
	cfg := Config{H: 2, SampleSize: 900, Seed: 3, Workers: 1, NoMemo: noMemo}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(sweep100k.g, sweep100k.store, sweep100k.pairs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BFSRuns), "bfs_runs")
		b.ReportMetric(float64(res.MemoHits), "memo_hits")
	}
}

// BenchmarkScreenSweepMemo is the K=8 (28-pair) sweep with the
// cross-pair density memo: each distinct reference node across the
// whole sweep is traversed once. The acceptance criterion is >= 3x
// fewer bfs_runs than BenchmarkScreenSweepNoMemo.
func BenchmarkScreenSweepMemo(b *testing.B) { runSweep(b, false) }

// BenchmarkScreenSweepNoMemo is the retained per-pair reference path:
// every pair re-traverses its full reference sample.
func BenchmarkScreenSweepNoMemo(b *testing.B) { runSweep(b, true) }

// sweepK32 is the planner's benchmark substrate: the same 100k-node
// coauthorship graph, but a K=32 (496-pair) event vocabulary shaped
// like a real screening question — 8 signal events co-located in the
// same community block (their pairs attract), and 24 background events
// each living in its own disjoint community block (their pairs, and
// every signal-background pair, are independent-to-repulsive). Top-k
// attraction screening on this vocabulary is the workload the planner
// exists for: a handful of strong pairs set the bar fast and the
// hopeless bulk prunes against it at early checkpoints.
var sweepK32 struct {
	once  sync.Once
	store *events.Store
	pairs [][2]string
}

func sweepK32Setup(tb testing.TB) {
	sweep100kSetup(tb)
	sweepK32.once.Do(func() {
		rng := rand.New(rand.NewPCG(7, 0xc0a1))
		b := events.NewBuilder(sweep100k.g.NumNodes())
		// Signal events co-locate inside the same 10 communities (80
		// authors each), the fixture's planted-pair shape at scale.
		for e := 0; e < 8; e++ {
			name := fmt.Sprintf("sig-%d", e)
			for c := 0; c < 10; c++ {
				for k := 0; k < 50; k++ {
					b.Add(name, graph.NodeID(c*80+rng.IntN(80)))
				}
			}
		}
		// Each background event owns a disjoint two-community block far
		// from the signal region (communities 20+2e, 21+2e).
		for e := 0; e < 24; e++ {
			name := fmt.Sprintf("bg-%02d", e)
			base := (20 + 2*e) * 80
			for k := 0; k < 500; k++ {
				b.Add(name, graph.NodeID(base+rng.IntN(160)))
			}
		}
		sweepK32.store = b.Build()
		sweepK32.pairs = AllPairs(sweepK32.store, 1)
	})
}

// BenchmarkScreenPlanTopK is the acceptance workload: top-10 of the
// K=32 (496-pair) surrogate. full_tests is the planner's headline
// saving: compare it with BenchmarkScreenSweepK32's full_tests (496).
func BenchmarkScreenPlanTopK(b *testing.B) {
	sweepK32Setup(b)
	cfg := PlanConfig{
		Config: Config{H: 2, SampleSize: 900, Seed: 3, Workers: 1, Alternative: stats.Greater},
		K:      10,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Plan(sweep100k.g, sweepK32.store, sweepK32.pairs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Stats.FullTests), "full_tests")
		b.ReportMetric(float64(res.Stats.PrunedEarly), "pruned_early")
		b.ReportMetric(float64(res.Stats.DensityEvals), "density_evals")
	}
}

// BenchmarkScreenSweepK32 is the exhaustive sweep over the same 496
// pairs — the planner's point of comparison (it pays 496 full tests).
func BenchmarkScreenSweepK32(b *testing.B) {
	sweepK32Setup(b)
	cfg := Config{H: 2, SampleSize: 900, Seed: 3, Workers: 1, Alternative: stats.Greater}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(sweep100k.g, sweepK32.store, sweepK32.pairs, cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.BFSRuns), "bfs_runs")
		b.ReportMetric(float64(res.Tested), "full_tests")
	}
}
