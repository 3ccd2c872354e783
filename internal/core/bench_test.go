package core

import (
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// bench100k is the PR 4 benchmark substrate: the ~100k-node DBLP
// coauthorship surrogate with an 8-event vocabulary whose occurrences
// cluster in the first communities — the localized event sets a §5.4
// sweep actually screens (keywords concentrate in venue communities;
// scattering them uniformly would make every vicinity disjoint and
// every population the whole graph). Built once; only -bench pays.
var bench100k struct {
	once    sync.Once
	g       *graph.Graph
	sets    []*graph.NodeSet
	problem *Problem
	sample  []graph.NodeID // 900 reference nodes from V^2_{a∪b}
}

const (
	benchEvents    = 8
	benchOcc       = 500
	benchRegion    = 20000 // occurrences fall in nodes [0, benchRegion)
	benchH         = 2
	benchSampleLen = 900
)

func bench100kSetup(tb testing.TB) {
	bench100k.once.Do(func() {
		rng := rand.New(rand.NewPCG(7, 0xc0a0))
		g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1.0), rng)
		n := g.NumNodes()
		sets := make([]*graph.NodeSet, benchEvents)
		for e := range sets {
			occ := make([]graph.NodeID, benchOcc)
			for i := range occ {
				occ[i] = graph.NodeID(rng.IntN(benchRegion))
			}
			sets[e] = graph.NewNodeSet(n, occ)
		}
		p := MustNewProblem(g, sets[0], sets[1])
		sampler := &BatchBFSSampler{}
		srng := rand.New(rand.NewPCG(11, 13))
		sample, err := sampler.SampleReferences(p, benchH, benchSampleLen, srng)
		if err != nil {
			tb.Fatal(err)
		}
		bench100k.g = g
		bench100k.sets = sets
		bench100k.problem = p
		bench100k.sample = sample.Nodes
	})
}

// BenchmarkDensityPhaseFlat measures the PR 4 fast path: the
// single-pair density phase (900 reference evaluations at h=2, single
// worker) through EvalAll — flat label kernel over Collect traversals.
// docs/PERFORMANCE.md quotes its current figure.
func BenchmarkDensityPhaseFlat(b *testing.B) {
	bench100kSetup(b)
	eval := NewDensityEvaluator(bench100k.problem, benchH)
	bench100k.problem.Labels() // build outside the timer, like Test does
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _, _ = eval.EvalAll(bench100k.sample)
	}
}

// BenchmarkMultiEvaluatorK8 measures the cross-pair kernel: one BFS per
// reference node yielding the occurrence counts of all 8 events — the
// work one screen memo miss performs, amortized over up to K(K-1)/2
// pairs.
func BenchmarkMultiEvaluatorK8(b *testing.B) {
	bench100kSetup(b)
	mem, err := NewEventMembership(bench100k.g.NumNodes(), bench100k.sets)
	if err != nil {
		b.Fatal(err)
	}
	multi, err := NewMultiEvaluator(bench100k.g, mem, benchH, nil)
	if err != nil {
		b.Fatal(err)
	}
	counts := make([]int32, benchEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range bench100k.sample {
			_ = multi.Eval(r, counts)
		}
	}
}
