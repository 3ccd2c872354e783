package core_test

import (
	"math/rand/v2"
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
