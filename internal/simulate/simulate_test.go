package simulate

import (
	"math/rand/v2"
	"slices"
	"testing"

	"tesc/internal/core"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/stats"
)

func testGraph(seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, 1))
	cfg := graphgen.PlantedPartitionConfig{Communities: 40, Size: 25, DegreeIn: 6, DegreeOut: 1.2}
	return graphgen.PlantedPartition(cfg, rng)
}

func TestConfigValidate(t *testing.T) {
	g := graph.Path(10)
	if err := (Config{H: 0, Occurrences: 1}).Validate(g); err == nil {
		t.Error("H=0 accepted")
	}
	if err := (Config{H: 1, Occurrences: 0}).Validate(g); err == nil {
		t.Error("0 occurrences accepted")
	}
	if err := (Config{H: 1, Occurrences: 9}).Validate(g); err == nil {
		t.Error("too many occurrences accepted")
	}
	if err := (Config{H: 1, Occurrences: 3}).Validate(g); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestGaussianHopRange(t *testing.T) {
	rng := rand.New(rand.NewPCG(101, 1))
	for _, h := range []int{1, 2, 3} {
		sawZero, sawH := false, false
		for i := 0; i < 2000; i++ {
			d := gaussianHop(h, rng)
			if d < 0 || d > h {
				t.Fatalf("h=%d: distance %d outside [0,%d]", h, d, h)
			}
			if d == 0 {
				sawZero = true
			}
			if d == h {
				sawH = true
			}
		}
		if !sawZero || !sawH {
			t.Errorf("h=%d: distance distribution did not cover both extremes", h)
		}
	}
}

func TestPositivePairLinkedDistance(t *testing.T) {
	g := testGraph(102)
	rng := rand.New(rand.NewPCG(103, 1))
	cfg := Config{H: 2, Occurrences: 50}
	pair, err := PositivePair(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pair.Va) != 50 || len(pair.Vb) != 50 {
		t.Fatalf("sizes = %d, %d", len(pair.Va), len(pair.Vb))
	}
	if !pair.Positive || pair.H != 2 {
		t.Error("pair metadata wrong")
	}
	// each companion must lie within h hops of its a node
	bfs := graph.NewBFS(g)
	for i := range pair.Va {
		if !slices.Contains(bfs.Collect([]graph.NodeID{pair.Va[i]}, cfg.H), pair.Vb[i]) {
			t.Fatalf("companion %d farther than %d hops from its a node", i, cfg.H)
		}
	}
}

func TestNegativePairSeparation(t *testing.T) {
	g := testGraph(104)
	rng := rand.New(rand.NewPCG(105, 1))
	cfg := Config{H: 2, Occurrences: 30}
	pair, err := NegativePair(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if pair.Positive {
		t.Error("polarity wrong")
	}
	// every b node at least h+1 hops from every a node: check via batch
	// BFS of Va
	bfs := graph.NewBFS(g)
	vic := graph.NewNodeSet(g.NumNodes(), bfs.SetVicinity(pair.Va, cfg.H, nil))
	for _, b := range pair.Vb {
		if vic.Contains(b) {
			t.Fatalf("b node %d inside V^%d_a", b, cfg.H)
		}
	}
}

func TestNegativePairSaturatedGraphFails(t *testing.T) {
	g := graph.Complete(20) // V^1_a is everything
	rng := rand.New(rand.NewPCG(106, 1))
	if _, err := NegativePair(g, Config{H: 1, Occurrences: 5}, rng); err == nil {
		t.Error("expected failure when V^h_a covers the graph")
	}
}

func TestAddPositiveNoise(t *testing.T) {
	g := testGraph(107)
	rng := rand.New(rand.NewPCG(108, 1))
	cfg := Config{H: 1, Occurrences: 60}
	pair, err := PositivePair(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	// p=0: unchanged
	same, err := AddPositiveNoise(g, pair, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := range same.Vb {
		if same.Vb[i] != pair.Vb[i] {
			t.Fatal("p=0 mutated the pair")
		}
	}
	// p=1: every companion relocated outside V^h_a
	broken, err := AddPositiveNoise(g, pair, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	bfs := graph.NewBFS(g)
	vic := graph.NewNodeSet(g.NumNodes(), bfs.SetVicinity(pair.Va, cfg.H, nil))
	for _, b := range broken.Vb {
		if vic.Contains(b) {
			t.Fatalf("relocated node %d still inside V^h_a", b)
		}
	}
	// original untouched
	if &broken.Vb[0] == &pair.Vb[0] {
		t.Error("noise must copy Vb")
	}
	// polarity guard
	neg, _ := NegativePair(g, cfg, rng)
	if _, err := AddPositiveNoise(g, neg, 0.5, rng); err == nil {
		t.Error("positive noise on negative pair accepted")
	}
	if _, err := AddPositiveNoise(g, pair, 1.5, rng); err == nil {
		t.Error("noise level out of range accepted")
	}
}

func TestAddNegativeNoise(t *testing.T) {
	g := testGraph(109)
	rng := rand.New(rand.NewPCG(110, 1))
	cfg := Config{H: 2, Occurrences: 40}
	pair, err := NegativePair(g, cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	moved, err := AddNegativeNoise(g, pair, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// every relocated b node must now be adjacent to (or equal to) an a node
	va := graph.NewNodeSet(g.NumNodes(), pair.Va)
	for _, b := range moved.Vb {
		ok := va.Contains(b)
		for _, nb := range g.Neighbors(b) {
			if va.Contains(nb) {
				ok = true
				break
			}
		}
		if !ok {
			t.Fatalf("relocated node %d not attached to event a", b)
		}
	}
	// polarity guard
	pos, _ := PositivePair(g, Config{H: 1, Occurrences: 10}, rng)
	if _, err := AddNegativeNoise(g, pos, 0.5, rng); err == nil {
		t.Error("negative noise on positive pair accepted")
	}
}

func TestBatch(t *testing.T) {
	g := testGraph(111)
	rng := rand.New(rand.NewPCG(112, 1))
	cfg := Config{H: 1, Occurrences: 30}
	pairs, err := Batch(g, cfg, true, 5, 0.1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 5 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for _, p := range pairs {
		if !p.Positive {
			t.Error("polarity wrong")
		}
	}
	neg, err := Batch(g, cfg, false, 3, 0.2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(neg) != 3 || neg[0].Positive {
		t.Error("negative batch wrong")
	}
}

// End-to-end: noiseless planted pairs must be detected with high recall,
// and fully-noised positive pairs must not be (they are independent).
func TestRecallEndToEnd(t *testing.T) {
	g := testGraph(113)
	rng := rand.New(rand.NewPCG(114, 1))
	// occurrence density ≈ 10% keeps the density vectors informative on
	// this small test graph (the paper's 5000/964k setting is reproduced
	// at scale by the bench harness).
	cfg := Config{H: 1, Occurrences: 100}
	opts := RecallOptions{H: 1, SampleSize: 300, Alpha: 0.05, Rand: rng}

	pos, err := Batch(g, cfg, true, 10, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	rp := EvaluateRecall(g, pos, opts)
	if rp.Recall() < 0.9 {
		t.Errorf("noiseless positive recall = %.2f (%+v), want >= 0.9", rp.Recall(), rp)
	}

	negPairs, err := Batch(g, cfg, false, 10, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	rn := EvaluateRecall(g, negPairs, opts)
	if rn.Recall() < 0.9 {
		t.Errorf("noiseless negative recall = %.2f (%+v), want >= 0.9", rn.Recall(), rn)
	}

	// fully broken positive pairs: b is relocated away from a everywhere,
	// so attraction should rarely be detected
	broken, err := Batch(g, cfg, true, 10, 1.0, rng)
	if err != nil {
		t.Fatal(err)
	}
	rb := EvaluateRecall(g, broken, opts)
	if rb.Recall() > 0.3 {
		t.Errorf("fully-noised positive recall = %.2f, want low", rb.Recall())
	}
}

func TestRecallResultZeroPairs(t *testing.T) {
	if (RecallResult{}).Recall() != 0 {
		t.Error("empty recall should be 0")
	}
}

func TestEvaluateRecallCountsErrors(t *testing.T) {
	g := graph.Path(30)
	// degenerate pair: single isolated reference population
	pairs := []EventPair{{Va: nil, Vb: nil, Positive: true, H: 1}}
	r := EvaluateRecall(g, pairs, RecallOptions{H: 1, SampleSize: 10, Alpha: 0.05})
	if r.Errors != 1 || r.Detected != 0 {
		t.Errorf("result = %+v", r)
	}
}

// Sanity: recall machinery agrees with a direct core.Test call.
func TestRecallMatchesDirectTest(t *testing.T) {
	g := testGraph(115)
	rng := rand.New(rand.NewPCG(116, 1))
	pair, err := PositivePair(g, Config{H: 1, Occurrences: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	seedRng := rand.New(rand.NewPCG(5, 5))
	r := EvaluateRecall(g, []EventPair{pair}, RecallOptions{H: 1, SampleSize: 150, Alpha: 0.05, Rand: seedRng})

	p := core.MustNewProblem(g,
		graph.NewNodeSet(g.NumNodes(), pair.Va),
		graph.NewNodeSet(g.NumNodes(), pair.Vb))
	res, err := core.Test(p, core.Options{
		H: 1, SampleSize: 150, Alpha: 0.05,
		Alternative: stats.Greater,
		Rand:        rand.New(rand.NewPCG(5, 5)),
	})
	if err != nil {
		t.Fatal(err)
	}
	if (r.Detected == 1) != res.Significant {
		t.Errorf("recall detection %v != direct test %v", r.Detected == 1, res.Significant)
	}
}
