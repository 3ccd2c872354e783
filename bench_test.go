package tesc

// The benchmarks below regenerate every table and figure of the paper's
// evaluation (one Benchmark per artifact, wrapping the runners in
// internal/bench at a reduced scale so `go test -bench=.` completes in
// minutes), plus the ablation benchmarks DESIGN.md §5 calls out for the
// repository's own design decisions.
//
// For paper-scale outputs run `tescbench -exp` instead (README,
// "Benchmarks").

import (
	"io"
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/bench"
	"tesc/internal/core"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/sampling"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

func benchConfig() bench.Config {
	cfg := bench.TinyConfig()
	cfg.Pairs = 2
	cfg.SampleSize = 300
	return cfg
}

func runExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		cfg.Seed = uint64(i + 1) // vary workload across iterations
		if err := bench.Registry[id](cfg, io.Discard); err != nil {
			b.Fatalf("%s: %v", id, err)
		}
	}
}

// One benchmark per paper artifact.

func BenchmarkFig5Recall(b *testing.B)          { runExperiment(b, "fig5") }
func BenchmarkFig6Recall(b *testing.B)          { runExperiment(b, "fig6") }
func BenchmarkFig7BatchImportance(b *testing.B) { runExperiment(b, "fig7") }
func BenchmarkFig8Density(b *testing.B)         { runExperiment(b, "fig8") }
func BenchmarkFig9Samplers(b *testing.B)        { runExperiment(b, "fig9") }
func BenchmarkFig10aBFS(b *testing.B)           { runExperiment(b, "fig10a") }
func BenchmarkFig10bZScore(b *testing.B)        { runExperiment(b, "fig10b") }
func BenchmarkTable1(b *testing.B)              { runExperiment(b, "table1") }
func BenchmarkTable2(b *testing.B)              { runExperiment(b, "table2") }
func BenchmarkTable3(b *testing.B)              { runExperiment(b, "table3") }
func BenchmarkTable4(b *testing.B)              { runExperiment(b, "table4") }
func BenchmarkTable5(b *testing.B)              { runExperiment(b, "table5") }

// ---------------------------------------------------------------------
// Micro-benchmarks of the building blocks.
// ---------------------------------------------------------------------

var (
	microOnce    sync.Once
	microGraph   *graph.Graph
	microIndex   *vicinity.Index
	microProblem *core.Problem
)

func microSetup(b *testing.B) {
	b.Helper()
	microOnce.Do(func() {
		rng := rand.New(rand.NewPCG(1, 1))
		microGraph = graphgen.Coauthorship(graphgen.DefaultCoauthorship(0.1), rng) // ~10k nodes
		var err error
		microIndex, err = vicinity.Build(microGraph, 2, vicinity.Options{})
		if err != nil {
			panic(err)
		}
		n := microGraph.NumNodes()
		va := make([]graph.NodeID, 50)
		vb := make([]graph.NodeID, 50)
		for i := range va {
			va[i] = graph.NodeID(rng.IntN(n))
			vb[i] = graph.NodeID(rng.IntN(n))
		}
		microProblem = core.MustNewProblem(microGraph,
			graph.NewNodeSet(n, va), graph.NewNodeSet(n, vb))
	})
}

// BenchmarkBFSHop measures one h-hop BFS per iteration (Figure 10(a)'s
// primitive).
func BenchmarkBFSHop1(b *testing.B) { benchBFS(b, 1) }
func BenchmarkBFSHop2(b *testing.B) { benchBFS(b, 2) }
func BenchmarkBFSHop3(b *testing.B) { benchBFS(b, 3) }

func benchBFS(b *testing.B, h int) {
	microSetup(b)
	bfs := graph.NewBFS(microGraph)
	rng := rand.New(rand.NewPCG(2, 2))
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		sink += bfs.VicinitySize(graph.NodeID(rng.IntN(microGraph.NumNodes())), h)
	}
	_ = sink
}

// BenchmarkDensityEval measures the per-reference-node density
// computation (Eq. 2) including the shared union count.
func BenchmarkDensityEval(b *testing.B) {
	microSetup(b)
	eval := core.NewDensityEvaluatorBFS(microProblem, 2, graph.NewBFS(microProblem.G))
	rng := rand.New(rand.NewPCG(3, 3))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Eval(graph.NodeID(rng.IntN(microGraph.NumNodes())))
	}
}

// BenchmarkSampler* measure reference-node selection per strategy at
// n = 300.
func BenchmarkSamplerBatchBFS(b *testing.B) {
	microSetup(b)
	benchSampler(b, &core.BatchBFSSampler{})
}
func BenchmarkSamplerImportance(b *testing.B) {
	microSetup(b)
	benchSampler(b, &core.ImportanceSampler{Index: microIndex, BatchSize: 3})
}
func BenchmarkSamplerWholeGraph(b *testing.B) {
	microSetup(b)
	benchSampler(b, &core.WholeGraphSampler{})
}
func BenchmarkSamplerRejection(b *testing.B) {
	microSetup(b)
	benchSampler(b, &core.RejectionSampler{Index: microIndex})
}

func benchSampler(b *testing.B, s core.Sampler) {
	rng := rand.New(rand.NewPCG(4, 4))
	bfs := graph.NewBFS(microGraph)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleReferences(microProblem, 2, 300, rng, bfs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEndToEnd measures a complete TESC test.
func BenchmarkEndToEnd(b *testing.B) {
	microSetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := core.Test(microProblem, core.Options{
			H: 2, SampleSize: 300, Alpha: 0.05,
			Alternative: stats.TwoSided,
			Rand:        rand.New(rand.NewPCG(uint64(i), 5)),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// Ablation benchmarks (DESIGN.md §5).
// ---------------------------------------------------------------------

// BenchmarkAblationKendall compares the O(n²) Kendall computation the
// paper uses against this repository's O(n log n) implementation at the
// paper's n = 900.
func BenchmarkAblationKendallNaive(b *testing.B) { benchKendall(b, true) }
func BenchmarkAblationKendallFast(b *testing.B)  { benchKendall(b, false) }

func benchKendall(b *testing.B, naive bool) {
	rng := rand.New(rand.NewPCG(6, 6))
	const n = 900
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = float64(rng.IntN(40)) / 100
		y[i] = float64(rng.IntN(40)) / 100
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if naive {
			stats.KendallNaive(x, y)
		} else {
			stats.Kendall(x, y)
		}
	}
}

// BenchmarkAblationAlias compares O(1) alias-table draws against linear
// cumulative scans for the weighted event-node choice of Algorithm 2.
func BenchmarkAblationAliasDraw(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	weights := make([]float64, 5000)
	for i := range weights {
		weights[i] = rng.Float64()*100 + 1
	}
	alias, err := sampling.NewAlias(weights)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alias.Draw(rng)
	}
}

func BenchmarkAblationLinearDraw(b *testing.B) {
	rng := rand.New(rand.NewPCG(7, 7))
	weights := make([]float64, 5000)
	var total float64
	for i := range weights {
		weights[i] = rng.Float64()*100 + 1
		total += weights[i]
	}
	b.ResetTimer()
	sink := 0
	for i := 0; i < b.N; i++ {
		r := rng.Float64() * total
		acc := 0.0
		for j, w := range weights {
			acc += w
			if acc >= r {
				sink = j
				break
			}
		}
	}
	_ = sink
}

// BenchmarkAblationSharedBFS measures the shared-BFS density evaluation
// (one traversal yields |V^h_r|, both event counts and the union count)
// against the naive two-pass alternative.
func BenchmarkAblationSharedBFS(b *testing.B) {
	microSetup(b)
	eval := core.NewDensityEvaluatorBFS(microProblem, 2, graph.NewBFS(microProblem.G))
	rng := rand.New(rand.NewPCG(8, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.Eval(graph.NodeID(rng.IntN(microGraph.NumNodes())))
	}
}

func BenchmarkAblationSeparateBFS(b *testing.B) {
	microSetup(b)
	bfs := graph.NewBFS(microGraph)
	rng := rand.New(rand.NewPCG(8, 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := graph.NodeID(rng.IntN(microGraph.NumNodes()))
		// pass 1: densities
		var size, ca, cb int
		for _, v := range bfs.Collect([]graph.NodeID{r}, 2) {
			size++
			if microProblem.Va.Contains(v) {
				ca++
			}
			if microProblem.Vb.Contains(v) {
				cb++
			}
		}
		// pass 2: union count for p(r)
		cu := 0
		for _, v := range bfs.Collect([]graph.NodeID{r}, 2) {
			if microProblem.Union.Contains(v) {
				cu++
			}
		}
		_, _, _, _ = size, ca, cb, cu
	}
}

// BenchmarkAblationBFSBuffers measures the epoch-stamped reusable BFS
// engine against allocating a fresh engine (visited array + queues) per
// traversal.
func BenchmarkAblationBFSReused(b *testing.B) {
	microSetup(b)
	bfs := graph.NewBFS(microGraph)
	rng := rand.New(rand.NewPCG(9, 9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs.VicinitySize(graph.NodeID(rng.IntN(microGraph.NumNodes())), 2)
	}
}

func BenchmarkAblationBFSFresh(b *testing.B) {
	microSetup(b)
	rng := rand.New(rand.NewPCG(9, 9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bfs := graph.NewBFS(microGraph)
		bfs.VicinitySize(graph.NodeID(rng.IntN(microGraph.NumNodes())), 2)
	}
}

// BenchmarkAblationDensitySequential measures the density phase, the
// dominant per-test cost: n = 900 independent h-hop traversals.
func BenchmarkAblationDensitySequential(b *testing.B) {
	microSetup(b)
	eval := core.NewDensityEvaluatorBFS(microProblem, 2, graph.NewBFS(microProblem.G))
	rng := rand.New(rand.NewPCG(11, 11))
	refs := make([]graph.NodeID, 900)
	for i := range refs {
		refs[i] = graph.NodeID(rng.IntN(microGraph.NumNodes()))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eval.EvalAll(refs)
	}
}

// BenchmarkAblationVarianceEq6 measures the tie-corrected variance
// (Eq. 6) at the paper's n = 900.
func BenchmarkAblationVarianceEq6(b *testing.B) {
	rng := rand.New(rand.NewPCG(10, 10))
	x := make([]float64, 900)
	for i := range x {
		x[i] = float64(rng.IntN(10))
	}
	ties := stats.TieSizes(x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.NumeratorVariance(900, ties, ties)
	}
}
