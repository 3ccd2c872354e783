package baseline

import (
	"math"
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/stats"
)

func TestTransactionCorrelation(t *testing.T) {
	// 10 nodes; a = {0..4}, b = {0..4}: perfect positive TC
	va := graph.NewNodeSet(10, []graph.NodeID{0, 1, 2, 3, 4})
	r, err := TransactionCorrelation(va, va)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(r.TauB, 1, 1e-12) {
		t.Errorf("identical events τ_b = %g, want 1", r.TauB)
	}
	// disjoint covering events: perfect negative
	vb := graph.NewNodeSet(10, []graph.NodeID{5, 6, 7, 8, 9})
	r2, _ := TransactionCorrelation(va, vb)
	if !almostEqual(r2.TauB, -1, 1e-12) {
		t.Errorf("disjoint covering events τ_b = %g, want -1", r2.TauB)
	}
	// universe mismatch
	bad := graph.NewNodeSet(11, []graph.NodeID{0})
	if _, err := TransactionCorrelation(va, bad); err == nil {
		t.Error("universe mismatch accepted")
	}
}

func TestTransactionCorrelationAgainstDirectTauB(t *testing.T) {
	rng := rand.New(rand.NewPCG(121, 1))
	const n = 500
	var ma, mb []graph.NodeID
	x := make([]float64, n)
	y := make([]float64, n)
	for v := 0; v < n; v++ {
		if rng.Float64() < 0.2 {
			ma = append(ma, graph.NodeID(v))
			x[v] = 1
		}
		if rng.Float64() < 0.3 {
			mb = append(mb, graph.NodeID(v))
			y[v] = 1
		}
	}
	r, err := TransactionCorrelation(graph.NewNodeSet(n, ma), graph.NewNodeSet(n, mb))
	if err != nil {
		t.Fatal(err)
	}
	// τ_b straight from Kendall's pair counts over the node indicators.
	k := stats.Kendall(x, y)
	n0 := float64(k.TotalPairs())
	tauB := float64(k.Numerator()) / math.Sqrt((n0-float64(k.TiesX+k.TiesBoth))*(n0-float64(k.TiesY+k.TiesBoth)))
	if !almostEqual(r.TauB, tauB, 1e-9) || !almostEqual(r.Z, k.Z, 1e-9) {
		t.Errorf("TC %+v != direct τ_b %g, z %g", r, tauB, k.Z)
	}
}

func TestIterativeTruncated(t *testing.T) {
	// path 0-1-2 with target {2}: h(2)=0; by symmetry of the chain,
	// h_T(1) = 1 + h_{T-1}(0)/2, h_T(0) = 1 + h_{T-1}(1).
	g := graph.Path(3)
	target := graph.NewNodeSet(3, []graph.NodeID{2})
	e := HittingTimeEstimator{MaxSteps: 50}
	h := e.IterativeTruncated(g, target)
	if h[2] != 0 {
		t.Errorf("h(target) = %g, want 0", h[2])
	}
	// exact expected hitting times on this chain: h(1)=3, h(0)=4
	if !almostEqual(h[1], 3, 1e-6) || !almostEqual(h[0], 4, 1e-6) {
		t.Errorf("h = %v, want [4 3 0]", h)
	}
	// truncation caps values
	e2 := HittingTimeEstimator{MaxSteps: 1}
	h2 := e2.IterativeTruncated(g, target)
	if h2[0] != 1 || h2[1] != 1 {
		t.Errorf("T=1 values = %v, want capped at 1", h2)
	}
	// disconnected nodes stay at MaxSteps
	g3 := graph.MustFromEdges(3, [][2]graph.NodeID{{1, 2}})
	h3 := HittingTimeEstimator{MaxSteps: 9}.IterativeTruncated(g3, graph.NewNodeSet(3, []graph.NodeID{2}))
	if h3[0] != 9 {
		t.Errorf("isolated node h = %g, want MaxSteps", h3[0])
	}
}

func TestProximityMinerCounts(t *testing.T) {
	// star: center 0, leaves 1..4. Events: "a" on 1, "b" on 2, "c" on 0.
	g := graph.Star(5)
	occ := map[string][]graph.NodeID{
		"a": {1},
		"b": {2},
		"c": {0},
	}
	m := ProximityMiner{H: 1}
	counts := m.PairSupports(g, occ)
	// 1-vicinity flood: a reaches {1,0}, b reaches {2,0}, c reaches all.
	// {a,b} co-located at node 0 only → 1.
	// {a,c} at nodes 0 and 1 → 2; {b,c} at 0 and 2 → 2.
	if counts[[2]string{"a", "b"}] != 1 {
		t.Errorf("ab = %g, want 1", counts[[2]string{"a", "b"}])
	}
	if counts[[2]string{"a", "c"}] != 2 || counts[[2]string{"b", "c"}] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestProximityMinerThreshold(t *testing.T) {
	g := graph.Star(5)
	occ := map[string][]graph.NodeID{
		"a": {1},
		"b": {2},
		"c": {0},
	}
	// threshold 2/5 → only the support-2 pairs survive
	m := ProximityMiner{H: 1, MinSup: 0.4}
	patterns := m.Mine(g, occ)
	if len(patterns) != 2 {
		t.Fatalf("patterns = %v", patterns)
	}
	for _, p := range patterns {
		if p.Support < 2 {
			t.Errorf("pattern below threshold: %+v", p)
		}
	}
	// sorted by support desc then name
	if patterns[0].Support < patterns[1].Support {
		t.Error("not sorted by support")
	}
	// rare pair {a,b} must be absent — the Table 5 phenomenon
	for _, p := range patterns {
		if p.A == "a" && p.B == "b" {
			t.Error("rare pair should be filtered by minsup")
		}
	}
}

func TestProximityMinerDecay(t *testing.T) {
	// path a-m-b: event a on 0, event b on 2. With H=1 and decay α, node
	// 1 (the middle) aggregates e^-α from each side; nodes 0 and 2 see
	// only their own event.
	g := graph.Path(3)
	occ := map[string][]graph.NodeID{"a": {0}, "b": {2}}
	m := ProximityMiner{H: 1, Alpha: 1}
	counts := m.PairSupports(g, occ)
	want := math.Exp(-1)
	if got := counts[[2]string{"a", "b"}]; !almostEqual(got, want, 1e-6) {
		t.Errorf("decayed support = %g, want %g", got, want)
	}
	// exact mode counts the middle node as a full co-occurrence
	exact := ProximityMiner{H: 1}.PairSupports(g, occ)
	if exact[[2]string{"a", "b"}] != 1 {
		t.Errorf("exact support = %g, want 1", exact[[2]string{"a", "b"}])
	}
	// decay weight uses the closest occurrence: event on both ends of a
	// 2-path, query the shared neighbor
	g2 := graph.Path(2)
	occ2 := map[string][]graph.NodeID{"a": {0, 1}, "b": {1}}
	dec := ProximityMiner{H: 1, Alpha: 2}.PairSupports(g2, occ2)
	// node 1: wa = 1 (own occurrence, d=0), wb = 1 → min 1;
	// node 0: wa = 1 (d=0), wb = e^-2 → min e^-2
	want2 := 1 + math.Exp(-2)
	if got := dec[[2]string{"a", "b"}]; !almostEqual(got, want2, 1e-6) {
		t.Errorf("decayed support = %g, want %g", got, want2)
	}
}

func TestProximityMinerEventCapPanics(t *testing.T) {
	g := graph.Path(2)
	occ := map[string][]graph.NodeID{}
	for i := 0; i < 65; i++ {
		occ[string(rune('A'+i%26))+string(rune('a'+i/26))] = []graph.NodeID{0}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic beyond 64 events")
		}
	}()
	ProximityMiner{H: 1}.PairSupports(g, occ)
}

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
