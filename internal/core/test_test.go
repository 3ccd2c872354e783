package core

import (
	"math"
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

func TestTestOptionValidation(t *testing.T) {
	p := pathProblem(t)
	cases := []Options{
		{H: 0, SampleSize: 10, Alpha: 0.05},
		{H: 1, SampleSize: 1, Alpha: 0.05},
		{H: 1, SampleSize: 10, Alpha: 0},
		{H: 1, SampleSize: 10, Alpha: 1},
	}
	for i, o := range cases {
		if _, err := Test(p, o); err == nil {
			t.Errorf("case %d: invalid options accepted: %+v", i, o)
		}
	}
	if _, err := Test(nil, DefaultOptions(1)); err == nil {
		t.Error("nil problem accepted")
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

func TestDefaultOptions(t *testing.T) {
	o := DefaultOptions(2)
	if o.H != 2 || o.SampleSize != 900 || o.Alpha != 0.05 {
		t.Errorf("defaults = %+v", o)
	}
}

// Two identical events must be perfectly positively correlated.
func TestIdenticalEventsPerfectlyCorrelated(t *testing.T) {
	rng := rand.New(rand.NewPCG(91, 1))
	g := graphgen.ErdosRenyi(300, 900, rng)
	occ := make([]graph.NodeID, 20)
	for i := range occ {
		occ[i] = graph.NodeID(rng.IntN(300))
	}
	va := graph.NewNodeSet(300, occ)
	p := MustNewProblem(g, va, va)
	opts := DefaultOptions(1)
	opts.SampleSize = 100
	opts.Alternative = stats.Greater
	opts.Rand = rng
	res, err := Test(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Identical events can never be discordant: every pair is either
	// concordant or tied, so τ equals the untied-pair fraction.
	k := stats.Kendall(res.SA, res.SB)
	if k.Discordant != 0 {
		t.Errorf("identical events produced %d discordant pairs", k.Discordant)
	}
	if res.Tau <= 0.5 {
		t.Errorf("identical events τ = %g, want strongly positive", res.Tau)
	}
	if !res.Significant || res.Verdict() != "positive" {
		t.Errorf("identical events not detected: %v", res)
	}
}

// A planted strong repulsion must yield a significantly negative z.
func TestSeparatedEventsNegative(t *testing.T) {
	// two far-apart communities on a path-of-cliques
	rng := rand.New(rand.NewPCG(92, 1))
	b := graph.NewBuilder(400)
	for c := 0; c < 8; c++ { // 8 cliques of 50, chained
		base := c * 50
		for i := 0; i < 50; i++ {
			for j := i + 1; j < 50; j += 7 {
				b.AddEdge(graph.NodeID(base+i), graph.NodeID(base+j))
			}
		}
		if c > 0 {
			b.AddEdge(graph.NodeID(base-1), graph.NodeID(base))
		}
	}
	g := b.MustBuild()
	var va, vb []graph.NodeID
	for i := 0; i < 30; i++ {
		va = append(va, graph.NodeID(rng.IntN(100)))     // cliques 0-1
		vb = append(vb, graph.NodeID(300+rng.IntN(100))) // cliques 6-7
	}
	p := MustNewProblem(g, graph.NewNodeSet(400, va), graph.NewNodeSet(400, vb))
	opts := DefaultOptions(1)
	opts.SampleSize = 150
	opts.Alternative = stats.Less
	opts.Rand = rng
	res, err := Test(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Z >= 0 {
		t.Errorf("separated events z = %g, want negative", res.Z)
	}
	if !res.Significant {
		t.Errorf("strong repulsion not significant: %v", res)
	}
}

// Type-I calibration: for independently scattered events, the one-tailed
// rejection rate at α=0.05 must be near 5%.
func TestIndependentEventsCalibration(t *testing.T) {
	rng := rand.New(rand.NewPCG(93, 1))
	g := graphgen.ErdosRenyi(800, 3200, rng)
	const trials = 120
	rejected := 0
	for trial := 0; trial < trials; trial++ {
		va := make([]graph.NodeID, 40)
		vb := make([]graph.NodeID, 40)
		for i := range va {
			va[i] = graph.NodeID(rng.IntN(800))
			vb[i] = graph.NodeID(rng.IntN(800))
		}
		p := MustNewProblem(g, graph.NewNodeSet(800, va), graph.NewNodeSet(800, vb))
		opts := DefaultOptions(1)
		opts.SampleSize = 100
		opts.Alternative = stats.Greater
		opts.Rand = rng
		res, err := Test(p, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Significant {
			rejected++
		}
	}
	rate := float64(rejected) / trials
	// Binomial(120, 0.05): σ ≈ 0.02; accept within [0, 0.14].
	if rate > 0.14 {
		t.Errorf("Type-I error rate = %.3f, want ≈0.05", rate)
	}
}

// TestSparseIndependenceSkewsNegative pins a real property of the TESC
// measure that screening users must know: for *sparse* independent
// events at small h, most eligible reference nodes see exactly one of
// the two events (the out-of-sight rule admits them for the event they
// do see), and every (a-only, b-only) reference pair is discordant by
// construction. The measure therefore drifts negative under sparse
// independence — the permutation null of §3.1 is calibrated against
// density-vector pairings, not against independent event placement.
// This is why the paper evaluates with one-tailed tests matched to the
// planted polarity, and why its Figure 6(a) recall stays ≈1 even at
// noise 0.9. Two-sided "repulsion" findings between rare events should
// be interpreted with care.
func TestSparseIndependenceSkewsNegative(t *testing.T) {
	rng := rand.New(rand.NewPCG(98, 1))
	g := graphgen.ErdosRenyi(2000, 8000, rng)
	negative := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		va := make([]graph.NodeID, 25) // 1.25% density
		vb := make([]graph.NodeID, 25)
		for i := range va {
			va[i] = graph.NodeID(rng.IntN(2000))
			vb[i] = graph.NodeID(rng.IntN(2000))
		}
		p := MustNewProblem(g, graph.NewNodeSet(2000, va), graph.NewNodeSet(2000, vb))
		res, err := Test(p, Options{H: 1, SampleSize: 200, Alpha: 0.05,
			Alternative: stats.Less, Rand: rng})
		if err != nil {
			t.Fatal(err)
		}
		if res.Z < 0 {
			negative++
		}
	}
	if negative < trials*3/4 {
		t.Errorf("only %d/%d sparse independent pairs drifted negative; the documented skew vanished", negative, trials)
	}
}

// All samplers must agree on a strong planted signal.
func TestAllSamplersAgreeOnStrongSignal(t *testing.T) {
	rng := rand.New(rand.NewPCG(94, 1))
	cfg := graphgen.PlantedPartitionConfig{Communities: 30, Size: 30, DegreeIn: 8, DegreeOut: 0.5}
	g := graphgen.PlantedPartition(cfg, rng)
	n := g.NumNodes()
	// a and b co-located in the same 10 communities → strong attraction
	var va, vb []graph.NodeID
	for c := 0; c < 10; c++ {
		base := c * 30
		for i := 0; i < 5; i++ {
			va = append(va, graph.NodeID(base+rng.IntN(30)))
			vb = append(vb, graph.NodeID(base+rng.IntN(30)))
		}
	}
	p := MustNewProblem(g, graph.NewNodeSet(n, va), graph.NewNodeSet(n, vb))
	idx, err := vicinity.Build(g, 2, vicinity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	samplers := []Sampler{
		&BatchBFSSampler{},
		&RejectionSampler{Index: idx},
		&ImportanceSampler{Index: idx},
		&ImportanceSampler{Index: idx, BatchSize: 3},
		&WholeGraphSampler{},
	}
	for _, s := range samplers {
		opts := DefaultOptions(2)
		opts.SampleSize = 200
		opts.Sampler = s
		opts.Alternative = stats.Greater
		opts.Rand = rand.New(rand.NewPCG(95, 1))
		res, err := Test(p, opts)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if !res.Significant || res.Z <= 0 {
			t.Errorf("%s missed a strong attraction: %v", s.Name(), res)
		}
		if res.SamplerName != s.Name() {
			t.Errorf("result sampler name %q != %q", res.SamplerName, s.Name())
		}
		if res.Weighted != (s.Name() != "batch-bfs" && s.Name() != "rejection" && s.Name() != "whole-graph") {
			t.Errorf("%s: Weighted = %v", s.Name(), res.Weighted)
		}
	}
}

// The weighted estimator t̃ must approximate the exhaustive τ over the
// full reference population (consistency, Theorem 1).
func TestWeightedEstimatorConsistency(t *testing.T) {
	rng := rand.New(rand.NewPCG(96, 1))
	g := graphgen.ErdosRenyi(150, 450, rng)
	va := make([]graph.NodeID, 10)
	vb := make([]graph.NodeID, 10)
	for i := range va {
		va[i] = graph.NodeID(rng.IntN(150))
		vb[i] = graph.NodeID(rng.IntN(150))
	}
	p := MustNewProblem(g, graph.NewNodeSet(150, va), graph.NewNodeSet(150, vb))
	idx, _ := vicinity.Build(g, 1, vicinity.Options{})

	// exhaustive τ over the entire population
	pop := referencePopulation(p, 1)
	eval := NewDensityEvaluator(p, 1)
	sa, sb, _ := eval.EvalAll(pop.Members())
	exact := stats.Kendall(sa, sb).Tau

	// importance-sampling estimate with a draw budget far above N
	opts := DefaultOptions(1)
	opts.SampleSize = pop.Len() // force near-complete coverage
	opts.Sampler = &ImportanceSampler{Index: idx}
	opts.Rand = rng
	res, err := Test(p, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Tau-exact) > 0.15 {
		t.Errorf("t̃ = %.3f vs exhaustive τ = %.3f", res.Tau, exact)
	}
}

func TestResultVerdictAndString(t *testing.T) {
	r := Result{Significant: true, Z: 2.5}
	if r.Verdict() != "positive" {
		t.Error("positive verdict")
	}
	r.Z = -2.5
	if r.Verdict() != "negative" {
		t.Error("negative verdict")
	}
	r.Significant = false
	if r.Verdict() != "independent" {
		t.Error("independent verdict")
	}
	if r.String() == "" {
		t.Error("String empty")
	}
}

// Deterministic by default: two runs without an explicit Rand must agree.
func TestDeterministicDefaultSeed(t *testing.T) {
	p := pathProblem(t)
	opts := DefaultOptions(1)
	opts.SampleSize = 4
	r1, err1 := Test(p, opts)
	r2, err2 := Test(p, opts)
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if r1.Tau != r2.Tau || r1.Z != r2.Z {
		t.Errorf("default-seed runs differ: %v vs %v", r1, r2)
	}
}

// Out-of-sight nodes (paper §3.2, Figure 3): including them inflates z.
// We verify the claimed direction by computing τ/z on the legal reference
// population versus the population plus out-of-sight nodes.
func TestOutOfSightInflatesZ(t *testing.T) {
	rng := rand.New(rand.NewPCG(97, 1))
	// sparse graph with localized events: plenty of out-of-sight nodes
	g := graphgen.ErdosRenyi(500, 700, rng)
	va := make([]graph.NodeID, 8)
	vb := make([]graph.NodeID, 8)
	for i := range va {
		va[i] = graph.NodeID(rng.IntN(100))
		vb[i] = graph.NodeID(rng.IntN(100)) // co-located: mild attraction
	}
	p := MustNewProblem(g, graph.NewNodeSet(500, va), graph.NewNodeSet(500, vb))

	pop := referencePopulation(p, 1)
	eval := NewDensityEvaluator(p, 1)
	sa, sb, _ := eval.EvalAll(pop.Members())
	legalZ := stats.Kendall(sa, sb).Z

	// add every out-of-sight node
	all := make([]graph.NodeID, g.NumNodes())
	for i := range all {
		all[i] = graph.NodeID(i)
	}
	saAll, sbAll, _ := eval.EvalAll(all)
	inflatedZ := stats.Kendall(saAll, sbAll).Z

	if inflatedZ <= legalZ {
		t.Errorf("out-of-sight nodes did not inflate z: legal %.2f vs all %.2f", legalZ, inflatedZ)
	}
}
