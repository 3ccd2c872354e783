package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"strings"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
)

func erProblem(t *testing.T, n int, m int64, ka, kb int, seed uint64) (*Problem, *vicinity.Index) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, 1))
	g := graphgen.ErdosRenyi(n, m, rng)
	va := make([]graph.NodeID, ka)
	vb := make([]graph.NodeID, kb)
	for i := range va {
		va[i] = graph.NodeID(rng.IntN(n))
	}
	for i := range vb {
		vb[i] = graph.NodeID(rng.IntN(n))
	}
	p := MustNewProblem(g,
		graph.NewNodeSet(n, va),
		graph.NewNodeSet(n, vb))
	idx, err := vicinity.Build(g, 3, vicinity.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return p, idx
}

// referencePopulation enumerates V^h_{a∪b} directly.
func referencePopulation(p *Problem, h int) *graph.NodeSet {
	bfs := graph.NewBFS(p.G)
	return graph.NewNodeSet(p.G.NumNodes(), bfs.SetVicinity(p.EventNodes(), h, nil))
}

func TestBatchBFSSamplerBasics(t *testing.T) {
	p, _ := erProblem(t, 500, 1500, 20, 20, 71)
	s := &BatchBFSSampler{}
	rng := rand.New(rand.NewPCG(72, 1))
	sample, err := s.SampleReferences(p, 2, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Nodes) != 50 {
		t.Fatalf("got %d nodes, want 50", len(sample.Nodes))
	}
	if sample.Weighted() {
		t.Error("batch BFS sample must be uniform")
	}
	pop := referencePopulation(p, 2)
	if sample.Stats.Population != pop.Len() {
		t.Errorf("Population = %d, want %d", sample.Stats.Population, pop.Len())
	}
	seen := map[graph.NodeID]bool{}
	for _, r := range sample.Nodes {
		if seen[r] {
			t.Fatalf("duplicate reference node %d", r)
		}
		seen[r] = true
		if !pop.Contains(r) {
			t.Fatalf("node %d outside V^h_union", r)
		}
	}
}

func TestBatchBFSSamplerWholePopulation(t *testing.T) {
	// when n >= N the sampler returns the entire population
	p, _ := erProblem(t, 100, 200, 3, 3, 73)
	s := &BatchBFSSampler{}
	rng := rand.New(rand.NewPCG(74, 1))
	sample, err := s.SampleReferences(p, 1, 10_000, rng)
	if err != nil {
		t.Fatal(err)
	}
	pop := referencePopulation(p, 1)
	if len(sample.Nodes) != pop.Len() {
		t.Errorf("got %d nodes, population is %d", len(sample.Nodes), pop.Len())
	}
}

func TestSamplersStayInPopulation(t *testing.T) {
	p, idx := erProblem(t, 400, 1200, 15, 15, 75)
	samplers := []Sampler{
		&BatchBFSSampler{},
		&RejectionSampler{Index: idx},
		&ImportanceSampler{Index: idx},
		&ImportanceSampler{Index: idx, BatchSize: 3},
		&WholeGraphSampler{},
	}
	lent := graph.NewBFS(p.G) // shared across samplers: warm, stale stamps
	for _, h := range []int{1, 2} {
		pop := referencePopulation(p, h)
		for _, s := range samplers {
			rng := rand.New(rand.NewPCG(76, uint64(h)))
			sample, err := s.SampleReferences(p, h, 40, rng)
			if err != nil {
				t.Fatalf("%s h=%d: %v", s.Name(), h, err)
			}
			// A caller-lent engine draws exactly the same sample.
			again, err := s.SampleReferences(p, h, 40, rand.New(rand.NewPCG(76, uint64(h))), lent)
			if err != nil || !slices.Equal(again.Nodes, sample.Nodes) || !slices.Equal(again.Freq, sample.Freq) || again.Stats != sample.Stats {
				t.Fatalf("%s h=%d: sample with a lent engine differs (err %v)", s.Name(), h, err)
			}
			if len(sample.Nodes) < 2 {
				t.Fatalf("%s h=%d: only %d nodes", s.Name(), h, len(sample.Nodes))
			}
			for _, r := range sample.Nodes {
				if !pop.Contains(r) {
					t.Fatalf("%s h=%d: node %d outside V^h_union", s.Name(), h, r)
				}
			}
			// distinctness
			seen := map[graph.NodeID]bool{}
			for _, r := range sample.Nodes {
				if seen[r] {
					t.Fatalf("%s: duplicate node %d", s.Name(), r)
				}
				seen[r] = true
			}
			if sample.Weighted() {
				if len(sample.Freq) != len(sample.Nodes) {
					t.Fatalf("%s: freq length mismatch", s.Name())
				}
				for i, w := range sample.Freq {
					if w < 1 {
						t.Fatalf("%s: freq[%d] = %d", s.Name(), i, w)
					}
				}
			}
		}
	}
}

// TestRejectionSamplerUniform verifies Proposition 1 empirically: on a
// small graph, repeated single draws land uniformly over V^h_{a∪b}
// (χ²-style tolerance).
func TestRejectionSamplerUniform(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	g := graphgen.ErdosRenyi(60, 120, rng)
	va := graph.NewNodeSet(60, []graph.NodeID{3, 17})
	vb := graph.NewNodeSet(60, []graph.NodeID{41})
	p := MustNewProblem(g, va, vb)
	idx, _ := vicinity.Build(g, 2, vicinity.Options{})
	pop := referencePopulation(p, 1)
	N := pop.Len()
	if N < 5 {
		t.Skip("population degenerate for this seed")
	}

	s := &RejectionSampler{Index: idx}
	counts := map[graph.NodeID]int{}
	const rounds = 4000
	for i := 0; i < rounds; i++ {
		// draw exactly one node per call so duplicates across calls are
		// allowed (within a call the sampler dedups)
		sample, err := s.SampleReferences(p, 1, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[sample.Nodes[0]]++
	}
	want := float64(rounds) / float64(N)
	sigma := math.Sqrt(float64(rounds) * (1 / float64(N)) * (1 - 1/float64(N)))
	for _, v := range pop.Members() {
		got := float64(counts[v])
		if math.Abs(got-want) > 5*sigma {
			t.Errorf("node %d drawn %."+"0f times, want %.1f ± %.1f", v, got, want, 5*sigma)
		}
	}
}

// Importance sampling's raw draws must follow p(r) ∝ |V^h_r ∩ Va∪b|
// (§4.2) — verified by frequency accounting over many draws.
func TestImportanceSamplerDistribution(t *testing.T) {
	rng := rand.New(rand.NewPCG(78, 1))
	g := graphgen.ErdosRenyi(50, 100, rng)
	va := graph.NewNodeSet(50, []graph.NodeID{5, 25})
	vb := graph.NewNodeSet(50, []graph.NodeID{40})
	p := MustNewProblem(g, va, vb)
	idx, _ := vicinity.Build(g, 1, vicinity.Options{})
	pop := referencePopulation(p, 1)
	N := pop.Len()
	if N < 4 {
		t.Skip("degenerate population")
	}

	// expected p(r) ∝ |V^1_r ∩ Va∪b|
	eval := NewDensityEvaluator(p, 1)
	expected := map[graph.NodeID]float64{}
	var total float64
	for _, r := range pop.Members() {
		c := float64(eval.Eval(r).CountUnion)
		expected[r] = c
		total += c
	}

	s := &ImportanceSampler{Index: idx}
	counts := map[graph.NodeID]int64{}
	var draws int64
	const rounds = 3000
	for i := 0; i < rounds; i++ {
		sample, err := s.SampleReferences(p, 1, 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		// count only the first draw of each call (unbiased by the
		// distinctness cutoff)
		counts[sample.Nodes[0]]++
		draws++
	}
	for _, r := range pop.Members() {
		want := expected[r] / total * float64(draws)
		got := float64(counts[r])
		pr := expected[r] / total
		sigma := math.Sqrt(float64(draws) * pr * (1 - pr))
		if math.Abs(got-want) > 5*sigma+1 {
			t.Errorf("node %d drawn %.0f times, want %.1f ± %.1f", r, got, want, 5*sigma)
		}
	}
}

func TestWholeGraphSamplerExhaustsSmallGraph(t *testing.T) {
	// every node of a small dense graph is eligible; the sampler must
	// return n distinct nodes quickly with zero out-of-sight examinations
	g := graph.Complete(30)
	va := graph.NewNodeSet(30, []graph.NodeID{0})
	vb := graph.NewNodeSet(30, []graph.NodeID{1})
	p := MustNewProblem(g, va, vb)
	s := &WholeGraphSampler{}
	rng := rand.New(rand.NewPCG(79, 1))
	sample, err := s.SampleReferences(p, 1, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Nodes) != 10 {
		t.Fatalf("got %d nodes", len(sample.Nodes))
	}
	if sample.Stats.OutOfSight != 0 {
		t.Errorf("OutOfSight = %d, want 0 on complete graph", sample.Stats.OutOfSight)
	}
}

func TestWholeGraphSamplerCountsOutOfSight(t *testing.T) {
	// long path, events at one end, h=1: most nodes are out of sight
	g := graph.Path(200)
	va := graph.NewNodeSet(200, []graph.NodeID{0})
	vb := graph.NewNodeSet(200, []graph.NodeID{1})
	p := MustNewProblem(g, va, vb)
	s := &WholeGraphSampler{}
	rng := rand.New(rand.NewPCG(80, 1))
	sample, err := s.SampleReferences(p, 1, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if sample.Stats.OutOfSight == 0 {
		t.Error("expected out-of-sight examinations on a sparse path")
	}
	if sample.Stats.Examined != sample.Stats.OutOfSight+int64(len(sample.Nodes)) {
		t.Errorf("stats inconsistent: %+v", sample.Stats)
	}
}

func TestSamplerIndexValidation(t *testing.T) {
	p, idx := erProblem(t, 100, 300, 5, 5, 81)
	rng := rand.New(rand.NewPCG(82, 1))

	other, _ := vicinity.Build(graph.Path(100), 3, vicinity.Options{})
	cases := []struct {
		what string
		idx  *vicinity.Index
		h    int
	}{
		{"missing index", nil, 1},
		{"h beyond index level", idx, 5},
		{"foreign index", other, 1},
	}
	for _, c := range cases {
		samplers := []struct {
			s      Sampler
			prefix string
		}{
			{&RejectionSampler{Index: c.idx}, "tesc: rejection sampler"},
			{&ImportanceSampler{Index: c.idx}, "tesc: importance sampler"},
			{&ImportanceSampler{Index: c.idx, BatchSize: 3}, "tesc: importance-batch3 sampler"},
		}
		for _, sc := range samplers {
			_, err := sc.s.SampleReferences(p, c.h, 10, rng)
			if err == nil {
				t.Errorf("%s: %s accepted it", c.what, sc.s.Name())
				continue
			}
			// Each message names its own sampler, once.
			msg := err.Error()
			if !strings.HasPrefix(msg, sc.prefix) || strings.Count(msg, "sampler") != 1 {
				t.Errorf("%s: %s error %q, want one %q prefix", c.what, sc.s.Name(), msg, sc.prefix)
			}
		}
	}
}

func TestSamplerNames(t *testing.T) {
	if (&BatchBFSSampler{}).Name() != "batch-bfs" {
		t.Error("batch name")
	}
	if (&RejectionSampler{}).Name() != "rejection" {
		t.Error("rejection name")
	}
	if (&ImportanceSampler{}).Name() != "importance" {
		t.Error("importance name")
	}
	if (&ImportanceSampler{BatchSize: 4}).Name() != "importance-batch4" {
		t.Error("batched importance name")
	}
	if (&WholeGraphSampler{}).Name() != "whole-graph" {
		t.Error("whole-graph name")
	}
}

func TestTooFewReferences(t *testing.T) {
	// isolated event node: V^h = {v} alone, population of 1 < 2
	g := graph.MustFromEdges(5, [][2]graph.NodeID{{1, 2}, {2, 3}})
	va := graph.NewNodeSet(5, []graph.NodeID{0}) // isolated node 0
	vb := graph.NewNodeSet(5, nil)
	p := MustNewProblem(g, va, vb)
	s := &BatchBFSSampler{}
	rng := rand.New(rand.NewPCG(83, 1))
	if _, err := s.SampleReferences(p, 2, 10, rng); err != ErrTooFewReferences {
		t.Errorf("err = %v, want ErrTooFewReferences", err)
	}
}
