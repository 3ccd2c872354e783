package core_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tesc/internal/core"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/simulate"
	"tesc/internal/vicinity"
)

// BenchmarkImportanceTest100k is churn-rw's read as a library call: one
// importance-sampled core.Test at h=2, n=900 on the 100k-node
// coauthorship surrogate (tesc.RandomCoauthorshipGraph(1, 7)), with a
// planted 1000 + 1000 positive pair and a pooled engine. Sampling, the
// density pass and the weighted estimator are all inside the timer; a
// fresh seed per op varies the draw. It lives in the external test
// package because simulate, which plants the pair, imports core.
func BenchmarkImportanceTest100k(b *testing.B) {
	g, pair := churnPair(b)
	n := g.NumNodes()
	p := core.MustNewProblem(g, graph.NewNodeSet(n, pair.Va), graph.NewNodeSet(n, pair.Vb))
	idx, err := vicinity.BuildForNodes(g, p.EventNodes(), 2, vicinity.Options{})
	if err != nil {
		b.Fatal(err)
	}
	opts := core.Options{
		H: 2, SampleSize: 900, Alpha: 0.05,
		Sampler: &core.ImportanceSampler{Index: idx},
		Engines: graph.NewEnginePool(g),
	}
	p.Labels() // build outside the timer, like a served graph's problem
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		opts.Rand = rand.New(rand.NewPCG(uint64(i), 1))
		if _, err := core.Test(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkBatchBFSTest20k is correlate-h1-coord's read as a library
// call, the twin of BenchmarkImportanceTest100k: one batch-bfs core.Test
// at h=1 (n=900 requested) on the 20k-node coauthorship surrogate
// (tesc.RandomCoauthorshipGraph(0.2, 7)) with a planted 30 + 30 positive
// pair and a pooled engine. The pair's h=1 population is smaller than
// the 900 references asked for, so all of it is the sample (350 nodes
// at seed 3), and its densities take few distinct values (29 and 32).
func BenchmarkBatchBFSTest20k(b *testing.B) {
	g, p := h1Pair(b, 7)
	opts := core.Options{H: 1, SampleSize: 900, Alpha: 0.05, Engines: graph.NewEnginePool(g)}
	p.Labels()
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		opts.Rand = rand.New(rand.NewPCG(uint64(i), 1))
		if _, err := core.Test(p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// h1Pair is correlate-h1-coord's substrate: the 20k-node coauthorship
// surrogate (tesc.RandomCoauthorshipGraph(0.2, 7)) and the problem of a
// planted 30 + 30 positive pair at h=1 drawn with the given seed.
func h1Pair(tb testing.TB, seed uint64) (*graph.Graph, *core.Problem) {
	g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(0.2), rand.New(rand.NewPCG(7, 0xc0a0)))
	pair, err := simulate.PositivePair(g, simulate.Config{H: 1, Occurrences: 30}, rand.New(rand.NewPCG(seed, 0x7e5c)))
	if err != nil {
		tb.Fatal(err)
	}
	n := g.NumNodes()
	return g, core.MustNewProblem(g, graph.NewNodeSet(n, pair.Va), graph.NewNodeSet(n, pair.Vb))
}

// TestPlantedH1ReadRunsEventSide: correlate-h1-coord's read, whose
// occurrences' ball sum is far below its references', counts its
// densities from the event side, one traversal per distinct
// occurrence node.
func TestPlantedH1ReadRunsEventSide(t *testing.T) {
	g, p := h1Pair(t, 7)
	res, err := core.Test(p, core.Options{H: 1, SampleSize: 900, Alpha: 0.05, Engines: graph.NewEnginePool(g)})
	if err != nil {
		t.Fatal(err)
	}
	refSum, eventSum := core.BallSumsH1(p, res.Nodes)
	if eventSum >= refSum {
		t.Fatalf("ball sums: references %d, events %d; the read is not event-light", refSum, eventSum)
	}
	if res.DensityBFS != int64(p.Union.Len()) {
		t.Fatalf("DensityBFS = %d, want |Va∪b| = %d (N = %d)", res.DensityBFS, p.Union.Len(), res.N)
	}
}

// BenchmarkNewProblem100k is a read's set-up on the same substrate and
// pair: the two occurrence sets and the problem over them (Va∪b). Its
// B/op follows the 2000 occurrences, not the 100k-node universe.
func BenchmarkNewProblem100k(b *testing.B) {
	g, pair := churnPair(b)
	n := g.NumNodes()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := core.NewProblem(g, graph.NewNodeSet(n, pair.Va), graph.NewNodeSet(n, pair.Vb)); err != nil {
			b.Fatal(err)
		}
	}
}

// churnPair is churn-rw's substrate: the 100k-node coauthorship
// surrogate (tesc.RandomCoauthorshipGraph(1, 7)) with a planted
// 1000 + 1000 positive pair at h=2.
func churnPair(b *testing.B) (*graph.Graph, simulate.EventPair) {
	g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1), rand.New(rand.NewPCG(7, 0xc0a0)))
	pair, err := simulate.PositivePair(g, simulate.Config{H: 2, Occurrences: 1000}, rand.New(rand.NewPCG(7, 0x7e5c)))
	if err != nil {
		b.Fatal(err)
	}
	return g, pair
}

// BenchmarkDensitySides20k times the h=1 density pass from each side
// on one sample of up to 900 references (BenchmarkBatchBFSTest20k's
// read at occ=30) and on planted pairs whose occurrence count climbs
// until the event side's ball sum passes the reference side's, so both
// sides of the rule's boundary are timed. Each row reports the two
// ball sums, Σ_r |V^1_r| and Σ_{a∈Va∪b} |V^1_a|, and their ratio. The
// problem's label array is built outside the timer, which favours the
// reference side.
func BenchmarkDensitySides20k(b *testing.B) {
	g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(0.2), rand.New(rand.NewPCG(7, 0xc0a0)))
	n := g.NumNodes()
	bfs := graph.NewBFS(g)
	for _, occ := range []int{30, 300, 500, 700, 900, 1200} {
		pair, err := simulate.PositivePair(g, simulate.Config{H: 1, Occurrences: occ}, rand.New(rand.NewPCG(7, 0x7e5c)))
		if err != nil {
			b.Fatal(err)
		}
		p := core.MustNewProblem(g, graph.NewNodeSet(n, pair.Va), graph.NewNodeSet(n, pair.Vb))
		sample, err := (&core.BatchBFSSampler{}).SampleReferences(p, 1, 900, rand.New(rand.NewPCG(1, 1)), bfs)
		if err != nil {
			b.Fatal(err)
		}
		rs := slices.Clone(sample.Nodes)
		refSum, eventSum := core.BallSumsH1(p, rs)
		p.Labels()
		eval := core.NewDensityEvaluatorBFS(p, 1, bfs)
		for _, side := range []string{"reference", "event"} {
			b.Run(fmt.Sprintf("occ=%d/%s", occ, side), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, _, err := eval.EvalSideH1(rs, side == "event"); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(refSum), "ref_ball_sum")
				b.ReportMetric(float64(eventSum), "event_ball_sum")
				b.ReportMetric(float64(eventSum)/float64(refSum), "event/ref")
			})
		}
	}
}
