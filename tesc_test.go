package tesc

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

func TestBuildGraphValidation(t *testing.T) {
	if _, err := BuildGraph(3, [][2]int{{0, 5}}); err == nil {
		t.Error("out-of-range edge accepted")
	}
	g, err := BuildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("g = %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	if g.Degree(1) != 2 {
		t.Errorf("Degree(1) = %d", g.Degree(1))
	}
	ns := g.Neighbors(1)
	if len(ns) != 2 || ns[0] != 0 || ns[1] != 2 {
		t.Errorf("Neighbors(1) = %v", ns)
	}
}

func TestReadWriteGraph(t *testing.T) {
	g, err := ReadGraph(strings.NewReader("# nodes 5\n0 1\n1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 5 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	var buf bytes.Buffer
	if err := g.WriteGraph(&buf); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadGraph(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 || g2.NumEdges() != 2 {
		t.Fatal("round trip changed the graph")
	}
}

func TestCorrelationValidation(t *testing.T) {
	g, _ := BuildGraph(10, [][2]int{{0, 1}, {1, 2}})
	if _, err := Correlation(g, []int{0}, []int{1}, Options{}); err == nil {
		t.Error("H=0 accepted")
	}
	if _, err := Correlation(g, []int{0}, []int{99}, Options{H: 1}); err == nil {
		t.Error("out-of-range occurrence accepted")
	}
	if _, err := Correlation(g, []int{0}, []int{1}, Options{H: 1, Alpha: math.NaN()}); err == nil {
		t.Error("NaN alpha accepted: such a test could never be significant")
	}
	if _, err := Correlation(g, nil, nil, Options{H: 1}); err != ErrNoEventNodes {
		t.Error("empty events should yield ErrNoEventNodes")
	}
	if _, err := Correlation(g, []int{0}, []int{1}, Options{H: 1, Method: Importance}); err == nil {
		t.Error("Importance without index accepted")
	}
	if _, err := Correlation(g, []int{0}, []int{1}, Options{H: 1, Method: Rejection}); err == nil {
		t.Error("Rejection without index accepted")
	}
	if _, err := Correlation(g, []int{0}, []int{1}, Options{H: 1, Method: Method(99)}); err == nil {
		t.Error("unknown method accepted")
	}
}

func TestCorrelationEndToEnd(t *testing.T) {
	// co-located events in a community graph → positive; the same events
	// under NegativeTail must not be "negative".
	g := RandomCommunityGraph(30, 30, 8, 0.5, 42)
	var va, vb []int
	for c := 0; c < 10; c++ {
		base := c * 30
		for i := 0; i < 5; i++ {
			va = append(va, base+(i*7)%30)
			vb = append(vb, base+(i*11+3)%30)
		}
	}
	res, err := Correlation(g, va, vb, Options{H: 2, SampleSize: 200, Tail: PositiveTail})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Significant || res.Verdict != "positive" {
		t.Errorf("planted attraction missed: %+v", res)
	}
	if res.Sampler != "batch-bfs" {
		t.Errorf("default sampler = %q", res.Sampler)
	}

	neg, err := Correlation(g, va, vb, Options{H: 2, SampleSize: 200, Tail: NegativeTail})
	if err != nil {
		t.Fatal(err)
	}
	if neg.Significant {
		t.Errorf("attraction misread as repulsion: %+v", neg)
	}
}

func TestCorrelationWithIndexMethods(t *testing.T) {
	g := RandomCommunityGraph(20, 25, 8, 0.5, 43)
	idx, err := g.BuildVicinityIndex(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var va, vb []int
	for c := 0; c < 8; c++ {
		base := c * 25
		for i := 0; i < 4; i++ {
			va = append(va, base+(i*5)%25)
			vb = append(vb, base+(i*7+2)%25)
		}
	}
	for _, m := range []Method{Importance, Rejection, WholeGraph} {
		opts := Options{H: 2, SampleSize: 150, Method: m, Index: idx, Tail: PositiveTail, Seed: 7}
		res, err := Correlation(g, va, vb, opts)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if !res.Significant {
			t.Errorf("%v missed planted attraction: %+v", m, res)
		}
	}
	// batched importance
	res, err := Correlation(g, va, vb, Options{H: 2, SampleSize: 150, Method: Importance, ImportanceBatch: 3, Index: idx, Tail: PositiveTail})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sampler != "importance-batch3" {
		t.Errorf("sampler = %q", res.Sampler)
	}
}

func TestCorrelationDeterminism(t *testing.T) {
	g := RandomCommunityGraph(10, 20, 6, 1, 44)
	va := []int{0, 1, 2, 20, 21}
	vb := []int{3, 4, 22, 23, 40}
	a, err := Correlation(g, va, vb, Options{H: 1, SampleSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Correlation(g, va, vb, Options{H: 1, SampleSize: 50})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("same options, different results:\n%+v\n%+v", a, b)
	}
	c, err := Correlation(g, va, vb, Options{H: 1, SampleSize: 50, Seed: 99})
	if err != nil {
		t.Fatal(err)
	}
	_ = c // different seed may or may not change the outcome; must not error
}

func TestTransactionCorrelationFacade(t *testing.T) {
	g, _ := BuildGraph(100, [][2]int{{0, 1}})
	va := make([]int, 0, 50)
	for i := 0; i < 50; i++ {
		va = append(va, i)
	}
	r, err := TransactionCorrelation(g, va, va)
	if err != nil {
		t.Fatal(err)
	}
	if r.TauB != 1 {
		t.Errorf("identical events τ_b = %g", r.TauB)
	}
	if _, err := TransactionCorrelation(g, []int{500}, va); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestSpearmanAndIntensityFacade(t *testing.T) {
	g := RandomCommunityGraph(20, 25, 8, 0.5, 45)
	var va, vb []int
	for c := 0; c < 8; c++ {
		base := c * 25
		for i := 0; i < 4; i++ {
			va = append(va, base+(i*5)%25)
			vb = append(vb, base+(i*7+2)%25)
		}
	}
	sp, err := Correlation(g, va, vb, Options{H: 2, SampleSize: 150, Tail: PositiveTail, UseSpearman: true})
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Significant {
		t.Errorf("Spearman missed planted attraction: %+v", sp)
	}

	// intensities: valid ones accepted, invalid rejected
	ia := make([]float64, g.NumNodes())
	for _, v := range va {
		ia[v] = 2.5
	}
	if _, err := Correlation(g, va, vb, Options{H: 1, SampleSize: 100, IntensityA: ia}); err != nil {
		t.Errorf("valid intensity rejected: %v", err)
	}
	bad := make([]float64, g.NumNodes())
	bad[va[0]+1] = 1 // wherever it lands, ensure a node outside va... pick explicit
	bad = make([]float64, g.NumNodes())
	outside := 0
	seen := map[int]bool{}
	for _, v := range va {
		seen[v] = true
	}
	for v := 0; v < g.NumNodes(); v++ {
		if !seen[v] {
			outside = v
			break
		}
	}
	bad[outside] = 1
	if _, err := Correlation(g, va, vb, Options{H: 1, SampleSize: 100, IntensityA: bad}); err == nil {
		t.Error("intensity outside Va accepted")
	}
	// Spearman + importance is rejected
	idx, _ := g.BuildVicinityIndex(1, 1)
	if _, err := Correlation(g, va, vb, Options{H: 1, SampleSize: 100, Method: Importance, Index: idx, UseSpearman: true}); err == nil {
		t.Error("Spearman with importance sampling accepted")
	}
}

func TestMethodAndTailNames(t *testing.T) {
	if BatchBFS.String() != "batch-bfs" || Importance.String() != "importance" ||
		WholeGraph.String() != "whole-graph" || Rejection.String() != "rejection" {
		t.Error("method names wrong")
	}
	if Method(9).String() == "" {
		t.Error("unknown method should format")
	}
}

func TestGenerators(t *testing.T) {
	comm := RandomCommunityGraph(10, 20, 6, 1, 1)
	if comm.NumNodes() != 200 {
		t.Errorf("community graph nodes = %d", comm.NumNodes())
	}
	pl := RandomPowerLawGraph(10, 4, 1)
	if pl.NumNodes() != 1024 {
		t.Errorf("power-law nodes = %d", pl.NumNodes())
	}
	hub := RandomHubGraph(500, 2, 100, 2, 1)
	if hub.Stats().MaxDegree < 80 {
		t.Errorf("hub max degree = %d", hub.Stats().MaxDegree)
	}
	sw := RandomSmallWorldGraph(100, 2, 0.1, 1)
	if sw.NumNodes() != 100 {
		t.Errorf("small world nodes = %d", sw.NumNodes())
	}
	if CommunityOf(25, 20) != 1 {
		t.Error("CommunityOf wrong")
	}
	s := comm.Stats()
	if s.Nodes != 200 || s.Edges != comm.NumEdges() || s.AvgDegree <= 0 {
		t.Errorf("stats = %+v", s)
	}
}
