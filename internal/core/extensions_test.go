package core

import (
	"context"
	"errors"
	"math"
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/sampling"
	"tesc/internal/stats"
)

// --- intensity extension (§6) ----------------------------------------

func TestSetIntensitiesValidation(t *testing.T) {
	p := pathProblem(t) // a on {0,1}, b on {4,5}, 6 nodes
	if err := p.SetIntensities(make([]float64, 3), nil); err == nil {
		t.Error("wrong-length intensity accepted")
	}
	bad := make([]float64, 6)
	bad[2] = 1 // node 2 not in Va
	if err := p.SetIntensities(bad, nil); err == nil {
		t.Error("intensity outside Va accepted")
	}
	for _, x := range []float64{math.NaN(), math.Inf(1), -1} {
		w := make([]float64, 6)
		w[4], w[5] = 1, x // Vb = {4, 5}
		if err := p.SetIntensities(nil, w); err == nil {
			t.Errorf("intensity B %g on a member accepted", x)
		}
	}
	ok := make([]float64, 6)
	ok[0], ok[1] = 2, 5
	if err := p.SetIntensities(ok, nil); err != nil {
		t.Errorf("valid intensity rejected: %v", err)
	}
}

func TestUnitIntensityMatchesCounts(t *testing.T) {
	p := pathProblem(t)
	unit := make([]float64, 6)
	for _, v := range p.Va.Members() {
		unit[v] = 1
	}
	unitB := make([]float64, 6)
	for _, v := range p.Vb.Members() {
		unitB[v] = 1
	}
	if err := p.SetIntensities(unit, unitB); err != nil {
		t.Fatal(err)
	}
	e := NewDensityEvaluator(p, 1)
	for v := graph.NodeID(0); v < 6; v++ {
		d := e.Eval(v)
		if d.SumA != float64(d.CountA) || d.SumB != float64(d.CountB) {
			t.Fatalf("unit intensities should reproduce counts: %+v", d)
		}
	}
}

func TestIntensityChangesDensities(t *testing.T) {
	p := pathProblem(t)
	ia := make([]float64, 6)
	ia[0], ia[1] = 10, 1 // node 0's occurrences dominate
	if err := p.SetIntensities(ia, nil); err != nil {
		t.Fatal(err)
	}
	e := NewDensityEvaluator(p, 1)
	d0 := e.Eval(0) // sees nodes 0,1 → SumA = 11 over size 2
	if d0.SA() != 5.5 {
		t.Errorf("SA(0) = %g, want 5.5", d0.SA())
	}
	d2 := e.Eval(2) // sees node 1 only → SumA = 1 over size 3
	if math.Abs(d2.SA()-1.0/3) > 1e-15 {
		t.Errorf("SA(2) = %g, want 1/3", d2.SA())
	}
	// counts unchanged by intensities
	if d0.CountA != 2 || d2.CountA != 1 {
		t.Error("counts must not depend on intensity")
	}
}

// Intensity-weighted TESC: scaling both events' intensities by positive
// constants must not change the outcome (rank statistic).
func TestIntensityScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewPCG(201, 1))
	g := graphgen.ErdosRenyi(300, 900, rng)
	va := make([]graph.NodeID, 25)
	vb := make([]graph.NodeID, 25)
	for i := range va {
		va[i] = graph.NodeID(rng.IntN(300))
		vb[i] = graph.NodeID(rng.IntN(300))
	}
	build := func(scaleA, scaleB float64) Result {
		p := MustNewProblem(g, graph.NewNodeSet(300, va), graph.NewNodeSet(300, vb))
		ia := make([]float64, 300)
		ib := make([]float64, 300)
		r2 := rand.New(rand.NewPCG(202, 1))
		for _, v := range p.Va.Members() {
			ia[v] = (1 + r2.Float64()*4) * scaleA
		}
		for _, v := range p.Vb.Members() {
			ib[v] = (1 + r2.Float64()*4) * scaleB
		}
		if err := p.SetIntensities(ia, ib); err != nil {
			t.Fatal(err)
		}
		res, err := Test(p, Options{H: 1, SampleSize: 80, Alpha: 0.05,
			Rand: rand.New(rand.NewPCG(7, 7))})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a := build(1, 1)
	b := build(3.5, 0.25)
	if math.Abs(a.Tau-b.Tau) > 1e-12 || math.Abs(a.Z-b.Z) > 1e-9 {
		t.Errorf("intensity scaling changed the rank statistic: %v vs %v", a, b)
	}
}

// --- Spearman statistic (§8) ------------------------------------------

func TestSpearmanStatisticAgreesOnStrongSignal(t *testing.T) {
	rng := rand.New(rand.NewPCG(203, 1))
	cfg := graphgen.PlantedPartitionConfig{Communities: 20, Size: 30, DegreeIn: 8, DegreeOut: 0.5}
	g := graphgen.PlantedPartition(cfg, rng)
	var va, vb []graph.NodeID
	for c := 0; c < 8; c++ {
		base := c * 30
		for i := 0; i < 5; i++ {
			va = append(va, graph.NodeID(base+rng.IntN(30)))
			vb = append(vb, graph.NodeID(base+rng.IntN(30)))
		}
	}
	p := MustNewProblem(g, graph.NewNodeSet(g.NumNodes(), va), graph.NewNodeSet(g.NumNodes(), vb))
	for _, st := range []Statistic{KendallTau, SpearmanRho} {
		res, err := Test(p, Options{
			H: 2, SampleSize: 150, Alpha: 0.05,
			Alternative: stats.Greater, Statistic: st,
			Rand: rand.New(rand.NewPCG(204, 1)),
		})
		if err != nil {
			t.Fatalf("statistic %v: %v", st, err)
		}
		if !res.Significant || res.Z <= 0 {
			t.Errorf("statistic %v missed the planted attraction: %v", st, res)
		}
	}
}

// TestSpearmanRejectsWeightedSamples: Spearman over an importance
// sample fails before the draw. A test that could run never consults
// its context, which the draw loop and the density pass both check,
// and a sampler that could not even start (no index) still reports the
// Spearman error.
func TestSpearmanRejectsWeightedSamples(t *testing.T) {
	p, idx := erProblem(t, 200, 600, 10, 10, 205)
	ctx := &nthCheckCtx{Context: context.Background(), n: math.MaxInt}
	_, err := Test(p, Options{
		H: 1, SampleSize: 50, Alpha: 0.05,
		Sampler:   &ImportanceSampler{Index: idx},
		Statistic: SpearmanRho,
		Ctx:       ctx,
	})
	if !errors.Is(err, ErrSpearmanWeighted) {
		t.Fatalf("err = %v, want ErrSpearmanWeighted", err)
	}
	if ctx.checks != 0 {
		t.Fatalf("the refused test checked its context %d times: it sampled or traversed", ctx.checks)
	}
	_, err = Test(p, Options{H: 1, SampleSize: 50, Alpha: 0.05,
		Sampler: &ImportanceSampler{}, Statistic: SpearmanRho})
	if !errors.Is(err, ErrSpearmanWeighted) {
		t.Fatalf("err = %v, want ErrSpearmanWeighted before the sampler's index check", err)
	}
}

// --- all-nodes sampler (§3.2 ablation) ---------------------------------

// AllNodesSampler draws reference nodes uniformly from the WHOLE graph,
// including out-of-sight nodes whose h-vicinity contains no event
// occurrence. The paper's §3.2 (Figure 3) argues this is wrong — the
// shared 0-ties of the out-of-sight block simultaneously add concordant
// pairs and shrink the null variance, inflating z. It exists only to
// reproduce that argument empirically.
type AllNodesSampler struct{}

// Name implements Sampler.
func (s *AllNodesSampler) Name() string { return "all-nodes(invalid)" }

// SampleReferences implements Sampler.
func (s *AllNodesSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand, _ ...*graph.BFS) (RefSample, error) {
	total := p.G.NumNodes()
	if total < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	picker := sampling.NewUniformNoReplace(total, rng)
	nodes := make([]graph.NodeID, 0, n)
	for len(nodes) < n {
		v, ok := picker.Next()
		if !ok {
			break
		}
		nodes = append(nodes, graph.NodeID(v))
	}
	return RefSample{Nodes: nodes, Stats: SamplerStats{Population: total}}, nil
}

func TestAllNodesSamplerInflatesZ(t *testing.T) {
	// localized mildly-attracting events on a sparse graph: legal
	// sampling vs all-nodes sampling. The §3.2 argument predicts the
	// all-nodes z exceeds the legal one.
	rng := rand.New(rand.NewPCG(206, 1))
	g := graphgen.ErdosRenyi(800, 1200, rng)
	va := make([]graph.NodeID, 12)
	vb := make([]graph.NodeID, 12)
	for i := range va {
		va[i] = graph.NodeID(rng.IntN(150))
		vb[i] = graph.NodeID(rng.IntN(150))
	}
	p := MustNewProblem(g, graph.NewNodeSet(800, va), graph.NewNodeSet(800, vb))

	legal, err := Test(p, Options{H: 1, SampleSize: 400, Alpha: 0.05,
		Rand: rand.New(rand.NewPCG(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	inflated, err := Test(p, Options{H: 1, SampleSize: 400, Alpha: 0.05,
		Sampler: &AllNodesSampler{}, Rand: rand.New(rand.NewPCG(1, 1))})
	if err != nil {
		t.Fatal(err)
	}
	if inflated.Z <= legal.Z {
		t.Errorf("all-nodes z = %.2f not above legal z = %.2f", inflated.Z, legal.Z)
	}
	if inflated.SamplerName != "all-nodes(invalid)" {
		t.Errorf("sampler name = %q", inflated.SamplerName)
	}
}

func TestAllNodesSamplerTinyGraph(t *testing.T) {
	g := graph.Path(1)
	va := graph.NewNodeSet(1, []graph.NodeID{0})
	p := MustNewProblem(g, va, va)
	s := &AllNodesSampler{}
	rng := rand.New(rand.NewPCG(1, 2))
	if _, err := s.SampleReferences(p, 1, 5, rng); err != ErrTooFewReferences {
		t.Errorf("err = %v, want ErrTooFewReferences", err)
	}
}
