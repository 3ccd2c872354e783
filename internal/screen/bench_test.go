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

// k32PlanConfig and k32RunConfig are the top-10 and exhaustive screens
// of the sweepK32 benchmarks.
var (
	k32RunConfig  = Config{H: 2, SampleSize: 900, Seed: 3, Workers: 1, Alternative: stats.Greater}
	k32PlanConfig = PlanConfig{Config: k32RunConfig, K: 10}
)

// warmK32Memo returns a SharedMemo over sweepK32's vocabulary that one
// untimed exhaustive screen has filled: the state a tescd job on an
// unchanged snapshot finds (densities, Va∪b and reference populations
// cached; a plan's samples are prefixes of the exhaustive ones).
func warmK32Memo(tb testing.TB) *SharedMemo {
	sweepK32Setup(tb)
	memo, err := NewSharedMemo(sweep100k.g.NumNodes(), sweepK32.store.Names())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := k32RunConfig
	cfg.Memo = memo
	if _, err := Run(sweep100k.g, sweepK32.store, sweepK32.pairs, cfg); err != nil {
		tb.Fatal(err)
	}
	return memo
}

func benchPlanTopK(b *testing.B, cfg PlanConfig) {
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
		b.ReportMetric(float64(res.Stats.Checkpoints), "checkpoints")
	}
}

func benchSweepK32(b *testing.B, cfg Config) {
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

// BenchmarkScreenPlanTopK is the acceptance workload: top-10 of the
// K=32 (496-pair) surrogate. full_tests is the planner's headline
// saving: compare it with BenchmarkScreenSweepK32's full_tests (496).
func BenchmarkScreenPlanTopK(b *testing.B) {
	sweepK32Setup(b)
	benchPlanTopK(b, k32PlanConfig)
}

// BenchmarkScreenPlanTopKWarm is the top-10 plan on a filled SharedMemo
// — a repeated tescd job: no density BFS and no population BFS, so
// what is left is sampling, Kendall and set-up.
func BenchmarkScreenPlanTopKWarm(b *testing.B) {
	cfg := k32PlanConfig
	cfg.Memo = warmK32Memo(b)
	benchPlanTopK(b, cfg)
}

// BenchmarkScreenPlanTopKRanked is the warm top-10 plan on a memo
// whose rank table a second exhaustive Run has built — tescd's steady
// state for a repeated screen-k32 job, where every chunk of every pair
// sorts rank keys. ranked_pairs counts the pairs that ran on rank keys
// to the end.
func BenchmarkScreenPlanTopKRanked(b *testing.B) {
	cfg := k32PlanConfig
	cfg.Memo = warmK32Memo(b)
	run := k32RunConfig
	run.Memo = cfg.Memo
	if _, err := Run(sweep100k.g, sweepK32.store, sweepK32.pairs, run); err != nil {
		b.Fatal(err)
	}
	if cfg.Memo.ranks.Load() == nil {
		b.Fatal("the second Run built no rank table")
	}
	before := cfg.Memo.rankPairs.Load()
	benchPlanTopK(b, cfg)
	b.ReportMetric(float64(cfg.Memo.rankPairs.Load()-before)/float64(b.N), "ranked_pairs")
}

// BenchmarkScreenPlanTopKWarmDeterministic is the warm top-10 plan
// with the statistical bound off (BoundAlpha < 0): pairs prune only on
// the deterministic completion bound, late in their sample, so this is
// the row that times the schedule's eighths.
func BenchmarkScreenPlanTopKWarmDeterministic(b *testing.B) {
	cfg := k32PlanConfig
	cfg.Memo = warmK32Memo(b)
	cfg.BoundAlpha = -1
	benchPlanTopK(b, cfg)
}

// BenchmarkScreenSweepK32 is the exhaustive sweep over the same 496
// pairs — the planner's point of comparison (it pays 496 full tests).
func BenchmarkScreenSweepK32(b *testing.B) {
	sweepK32Setup(b)
	benchSweepK32(b, k32RunConfig)
}

// BenchmarkScreenSweepK32Warm is the exhaustive sweep on a filled
// SharedMemo (bfs_runs 0).
func BenchmarkScreenSweepK32Warm(b *testing.B) {
	cfg := k32RunConfig
	cfg.Memo = warmK32Memo(b)
	benchSweepK32(b, cfg)
}

// BenchmarkScreenRankBuildK32 is the rank table's build cost on the
// filled K=32 memo: 32 events ranked over every published node, the
// work the first warm exhaustive sweep on a snapshot adds. table_bytes
// is the table's footprint.
func BenchmarkScreenRankBuildK32(b *testing.B) {
	memo := warmK32Memo(b)
	key := popKey{sweep100k.g, sweepK32.store, k32RunConfig.H}
	events := make([]int, len(memo.Names()))
	for e := range events {
		events[e] = e
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		memo.ranks.Store(nil)
		memo.rankEvents(key, events)
	}
	b.ReportMetric(float64(memo.ranks.Load().bytes), "table_bytes")
}
