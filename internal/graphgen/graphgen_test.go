package graphgen

import (
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
)

func TestErdosRenyi(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 1))
	g := ErdosRenyi(100, 300, rng)
	if g.NumNodes() != 100 {
		t.Fatalf("nodes = %d, want 100", g.NumNodes())
	}
	if g.NumEdges() != 300 {
		t.Fatalf("edges = %d, want exactly 300", g.NumEdges())
	}
}

func TestErdosRenyiSaturated(t *testing.T) {
	rng := rand.New(rand.NewPCG(2, 1))
	g := ErdosRenyi(5, 10, rng) // complete graph
	if g.NumEdges() != 10 {
		t.Fatalf("edges = %d, want 10", g.NumEdges())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for m > max edges")
		}
	}()
	ErdosRenyi(5, 11, rng)
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 1))
	g := BarabasiAlbert(500, 3, rng)
	if g.NumNodes() != 500 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// seed clique (k+1 choose 2) + k per additional node
	wantEdges := int64(6 + 3*(500-4))
	if g.NumEdges() != wantEdges {
		t.Fatalf("edges = %d, want %d", g.NumEdges(), wantEdges)
	}
	// preferential attachment must produce a skewed degree distribution:
	// max degree well above the mean.
	s := graph.ComputeStats(g)
	if float64(s.MaxDegree) < 3*s.AvgDegree {
		t.Errorf("BA max degree %d not skewed vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
	if s.Components != 1 {
		t.Errorf("BA graph should be connected, got %d components", s.Components)
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewPCG(4, 1))
	g := WattsStrogatz(200, 3, 0.1, rng)
	if g.NumNodes() != 200 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// n*k edges before rewiring; rewiring can only create (rare)
	// collisions that the builder dedups.
	if g.NumEdges() < 560 || g.NumEdges() > 600 {
		t.Fatalf("edges = %d, want ≈600", g.NumEdges())
	}
	// beta=0 must be the exact ring lattice.
	ring := WattsStrogatz(50, 2, 0, rng)
	if ring.NumEdges() != 100 {
		t.Fatalf("ring lattice edges = %d, want 100", ring.NumEdges())
	}
	for v := 0; v < 50; v++ {
		if ring.Degree(graph.NodeID(v)) != 4 {
			t.Fatalf("ring node %d degree = %d, want 4", v, ring.Degree(graph.NodeID(v)))
		}
	}
}

func TestPlantedPartition(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 1))
	cfg := PlantedPartitionConfig{Communities: 20, Size: 50, DegreeIn: 6, DegreeOut: 1}
	g := PlantedPartition(cfg, rng)
	if g.NumNodes() != 1000 {
		t.Fatalf("nodes = %d, want 1000", g.NumNodes())
	}
	// Expected ~3500 distinct edges; the builder dedups collisions so
	// allow slack.
	if g.NumEdges() < 3000 || g.NumEdges() > 3600 {
		t.Fatalf("edges = %d, want ≈3500", g.NumEdges())
	}
	// Count intra vs inter community edges: intra should dominate
	// per-pair density massively.
	var intra, inter int64
	g.ForEachEdge(func(u, v graph.NodeID) bool {
		if int(u)/cfg.Size == int(v)/cfg.Size {
			intra++
		} else {
			inter++
		}
		return true
	})
	if intra < 4*inter {
		t.Errorf("intra=%d inter=%d: community structure too weak", intra, inter)
	}
}

func TestCoauthorship(t *testing.T) {
	rng := rand.New(rand.NewPCG(21, 1))
	cfg := DefaultCoauthorship(0.05)
	g := Coauthorship(cfg, rng)
	if g.NumNodes() != cfg.NumNodes() {
		t.Fatalf("nodes = %d, want %d", g.NumNodes(), cfg.NumNodes())
	}
	s := graph.ComputeStats(g)
	// target the DBLP profile: avg degree ≈ 7.35
	if s.AvgDegree < 5.5 || s.AvgDegree > 9 {
		t.Errorf("avg degree = %.2f, want ≈7.35", s.AvgDegree)
	}
	// co-authorship graphs are highly clustered: count triangles around a
	// sample of nodes — a random graph of this density would have nearly
	// none.
	closed, open := 0, 0
	for v := 0; v < 500; v++ {
		ns := g.Neighbors(graph.NodeID(v))
		for i := 0; i < len(ns); i++ {
			for j := i + 1; j < len(ns); j++ {
				open++
				if g.HasEdge(ns[i], ns[j]) {
					closed++
				}
			}
		}
	}
	// ≈0.23 at this scale; an ER graph of equal density has ≈0.004
	if open == 0 || float64(closed)/float64(open) < 0.15 {
		t.Errorf("clustering coefficient = %.2f, want high (clique papers)", float64(closed)/float64(open))
	}
}

func TestIntrusionGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(22, 1))
	cfg := DefaultIntrusion(3000)
	g := Intrusion(cfg, rng)
	if g.NumNodes() != 3000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	s := graph.ComputeStats(g)
	// routers absorb whole subnets: hub degree ≈ hosts/hubs ≈ n/4
	if s.MaxDegree < 3000/8 {
		t.Errorf("max degree = %d, want ≈ n/4", s.MaxDegree)
	}
	// subnets are cliques
	members := cfg.SubnetMembers(3)
	for i := 0; i < len(members); i++ {
		for j := i + 1; j < len(members); j++ {
			if !g.HasEdge(members[i], members[j]) {
				t.Fatalf("subnet 3 not a clique: %d-%d missing", members[i], members[j])
			}
		}
	}
	if cfg.NumSubnets() != (3000-cfg.Hubs+cfg.SubnetSize-1)/cfg.SubnetSize {
		t.Errorf("NumSubnets = %d", cfg.NumSubnets())
	}
	// every host reaches a hub in 1 hop → 2-vicinity of any host covers
	// its router's whole neighborhood (the Intrusion trait)
	b := graph.NewBFS(g)
	host := members[0]
	if v2 := b.VicinitySize(host, 2); v2 < s.MaxDegree/2 {
		t.Errorf("host 2-vicinity = %d, want large", v2)
	}
	// invalid configs panic
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config should panic")
		}
	}()
	Intrusion(IntrusionConfig{Nodes: 5, Hubs: 1, SubnetSize: 8}, rng)
}

func TestHubGraph(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 1))
	g := HubGraph(2000, 3, 500, 2, rng)
	if g.NumNodes() != 2000 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	s := graph.ComputeStats(g)
	if s.MaxDegree < 400 {
		t.Errorf("hub max degree = %d, want ≈500", s.MaxDegree)
	}
	// The Intrusion trait (§5.4): 2-vicinity of a hub covers a large
	// fraction of the graph.
	b := graph.NewBFS(g)
	if v2 := b.VicinitySize(0, 2); float64(v2) < 0.5*float64(g.NumNodes()) {
		t.Errorf("hub 2-vicinity = %d of %d nodes, want > half", v2, g.NumNodes())
	}
}

func TestRMAT(t *testing.T) {
	rng := rand.New(rand.NewPCG(8, 1))
	cfg := DefaultTwitterSurrogate(12) // 4096 nodes
	g := RMAT(cfg, rng)
	if g.NumNodes() != 4096 {
		t.Fatalf("nodes = %d, want 4096", g.NumNodes())
	}
	if g.NumEdges() == 0 || g.NumEdges() > 8*4096 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	s := graph.ComputeStats(g)
	if float64(s.MaxDegree) < 5*s.AvgDegree {
		t.Errorf("RMAT not skewed: max %d vs avg %.1f", s.MaxDegree, s.AvgDegree)
	}
}

func TestRMATBadProbabilities(t *testing.T) {
	rng := rand.New(rand.NewPCG(9, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for probabilities > 1")
		}
	}()
	RMAT(RMATConfig{Scale: 4, EdgeFactor: 2, A: 0.6, B: 0.3, C: 0.3}, rng)
}

func TestGeneratorsDeterministic(t *testing.T) {
	g1 := ErdosRenyi(50, 100, rand.New(rand.NewPCG(42, 7)))
	g2 := ErdosRenyi(50, 100, rand.New(rand.NewPCG(42, 7)))
	e1, e2 := g1.Edges(), g2.Edges()
	if len(e1) != len(e2) {
		t.Fatal("same seed produced different edge counts")
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("same seed produced different edges at %d: %v vs %v", i, e1[i], e2[i])
		}
	}
}

func TestRemoveRandomEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(10, 1))
	g := ErdosRenyi(100, 400, rng)
	g2 := RemoveRandomEdges(g, 150, rng)
	if g2.NumEdges() != 250 {
		t.Fatalf("edges after removal = %d, want 250", g2.NumEdges())
	}
	if g2.NumNodes() != 100 {
		t.Fatalf("node count changed: %d", g2.NumNodes())
	}
	// every surviving edge must exist in the original
	g2.ForEachEdge(func(u, v graph.NodeID) bool {
		if !g.HasEdge(u, v) {
			t.Fatalf("edge (%d,%d) not in original", u, v)
		}
		return true
	})
	// removing everything
	g3 := RemoveRandomEdges(g, 10_000, rng)
	if g3.NumEdges() != 0 {
		t.Fatalf("edges = %d, want 0", g3.NumEdges())
	}
}

func TestAddRandomEdges(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 1))
	g := ErdosRenyi(100, 200, rng)
	g2 := AddRandomEdges(g, 100, rng)
	if g2.NumEdges() != 300 {
		t.Fatalf("edges after addition = %d, want 300", g2.NumEdges())
	}
	// all original edges preserved
	g.ForEachEdge(func(u, v graph.NodeID) bool {
		if !g2.HasEdge(u, v) {
			t.Fatalf("original edge (%d,%d) lost", u, v)
		}
		return true
	})
	// saturation: cannot exceed complete graph
	small := ErdosRenyi(5, 4, rng)
	full := AddRandomEdges(small, 1000, rng)
	if full.NumEdges() != 10 {
		t.Fatalf("saturated edges = %d, want 10", full.NumEdges())
	}
}
