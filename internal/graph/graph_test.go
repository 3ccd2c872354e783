package graph

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestEmptyGraph(t *testing.T) {
	g := &Graph{}
	if g.NumNodes() != 0 {
		t.Errorf("empty graph NumNodes = %d, want 0", g.NumNodes())
	}
	if g.NumEdges() != 0 {
		t.Errorf("empty graph NumEdges = %d, want 0", g.NumEdges())
	}
	g2 := NewBuilder(0).MustBuild()
	if g2.NumNodes() != 0 || g2.NumEdges() != 0 {
		t.Errorf("built empty graph = %v", g2)
	}
}

func TestBuilderBasic(t *testing.T) {
	g := MustFromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}})
	if g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("NumEdges = %d, want 3", g.NumEdges())
	}
	wantDeg := []int{1, 2, 2, 1}
	for v, want := range wantDeg {
		if got := g.Degree(NodeID(v)); got != want {
			t.Errorf("Degree(%d) = %d, want %d", v, got, want)
		}
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("HasEdge(0,1) should hold in both directions")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) should be false")
	}
	if g.HasEdge(0, 3) {
		t.Error("HasEdge(0,3) should be false")
	}
}

func TestBuilderDedupAndSelfLoops(t *testing.T) {
	b := NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // reversed duplicate
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1 after dedup", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Errorf("self loop should be dropped, Degree(2) = %d", g.Degree(2))
	}
	if g.Degree(0) != 1 || g.Degree(1) != 1 {
		t.Errorf("degrees after dedup = %d,%d, want 1,1", g.Degree(0), g.Degree(1))
	}
}

func TestBuilderOutOfRange(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 5)
	if _, err := b.Build(); err == nil {
		t.Fatal("Build should fail for out-of-range endpoint")
	}
	b2 := NewBuilder(2)
	b2.AddEdge(-1, 0)
	if _, err := b2.Build(); err == nil {
		t.Fatal("Build should fail for negative endpoint")
	}
}

func TestGrowingBuilder(t *testing.T) {
	b := NewGrowingBuilder()
	b.AddEdge(0, 7)
	b.AddEdge(3, 4)
	g := b.MustBuild()
	if g.NumNodes() != 8 {
		t.Fatalf("NumNodes = %d, want 8", g.NumNodes())
	}
	if g.NumEdges() != 2 {
		t.Fatalf("NumEdges = %d, want 2", g.NumEdges())
	}
}

func TestGrowingBuilderEnsureNodes(t *testing.T) {
	b := NewGrowingBuilder()
	b.AddEdge(0, 3)
	b.EnsureNodes(-1) // no header: no change
	b.EnsureNodes(2)  // below the largest endpoint: no change
	if g := b.MustBuild(); g.NumNodes() != 4 {
		t.Fatalf("NumNodes = %d, want 4", g.NumNodes())
	}
	b.EnsureNodes(9)
	b.AddEdge(1, 2) // an endpoint below the raised count keeps it
	g := b.MustBuild()
	if g.NumNodes() != 9 || g.NumEdges() != 2 || g.Degree(8) != 0 {
		t.Fatalf("after EnsureNodes(9): %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
}

// TestBuildMatchesReference holds Build to a set-of-pairs reference on
// random multigraphs: duplicates, reversed duplicates, self-loops and
// isolated nodes. Its CSR must also pass FromCSR's invariant checks.
func TestBuildMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 1))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.IntN(600)
		want := make([]map[NodeID]bool, n)
		for v := range want {
			want[v] = map[NodeID]bool{}
		}
		b := NewBuilder(n)
		for i := rng.IntN(4 * n); i > 0; i-- {
			u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
			if rng.IntN(4) == 0 {
				v = u + NodeID(rng.IntN(3)) // self-loops and near neighbours
				if int(v) >= n {
					v = u
				}
			}
			b.AddEdge(u, v)
			if rng.IntN(5) == 0 {
				b.AddEdge(v, u)
			}
			if u != v {
				want[u][v], want[v][u] = true, true
			}
		}
		g := b.MustBuild()
		if g.NumNodes() != n {
			t.Fatalf("trial %d: NumNodes = %d, want %d", trial, g.NumNodes(), n)
		}
		for v := range want {
			row := make([]NodeID, 0, len(want[v]))
			for u := range want[v] {
				row = append(row, u)
			}
			slices.Sort(row)
			if got := g.Neighbors(NodeID(v)); !slices.Equal(got, row) {
				t.Fatalf("trial %d: row %d = %v, want %v", trial, v, got, row)
			}
		}
		off, adj := flatCSR(g)
		if _, err := FromCSR(off, adj); err != nil {
			t.Fatalf("trial %d: built CSR fails FromCSR: %v", trial, err)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	b := NewBuilder(5)
	b.AddEdge(2, 4)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	b.AddEdge(2, 1)
	g := b.MustBuild()
	ns := g.Neighbors(2)
	for i := 1; i < len(ns); i++ {
		if ns[i-1] >= ns[i] {
			t.Fatalf("Neighbors(2) not sorted: %v", ns)
		}
	}
}

func TestEdgesIteration(t *testing.T) {
	g := MustFromEdges(4, [][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	edges := g.Edges()
	if len(edges) != 4 {
		t.Fatalf("len(Edges) = %d, want 4", len(edges))
	}
	for _, e := range edges {
		if e[0] >= e[1] {
			t.Errorf("edge %v not normalized u < v", e)
		}
	}
	// early stop
	count := 0
	g.ForEachEdge(func(u, v NodeID) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Errorf("ForEachEdge early stop visited %d, want 2", count)
	}
}

func TestClassicGraphs(t *testing.T) {
	cases := []struct {
		name  string
		g     *Graph
		nodes int
		edges int64
	}{
		{"path5", Path(5), 5, 4},
		{"cycle6", Cycle(6), 6, 6},
		{"complete5", Complete(5), 5, 10},
		{"star7", Star(7), 7, 6},
		{"grid3x4", Grid(3, 4), 12, 17},
		{"path1", Path(1), 1, 0},
	}
	for _, tc := range cases {
		if tc.g.NumNodes() != tc.nodes {
			t.Errorf("%s: nodes = %d, want %d", tc.name, tc.g.NumNodes(), tc.nodes)
		}
		if tc.g.NumEdges() != tc.edges {
			t.Errorf("%s: edges = %d, want %d", tc.name, tc.g.NumEdges(), tc.edges)
		}
	}
}

func TestBFSDepthsOnPath(t *testing.T) {
	g := Path(10)
	b := NewBFS(g)
	vis := b.Collect([]NodeID{0}, 4)
	if len(vis) != 5 {
		t.Fatalf("4-hop BFS from path end reached %d nodes, want 5", len(vis))
	}
	// One node per level: node v sits alone at depth v.
	ends := b.LevelEnds()
	for v := NodeID(0); v <= 4; v++ {
		if vis[v] != v || ends[v] != int(v)+1 {
			t.Errorf("depth %d: node %d, level end %d", v, vis[v], ends[v])
		}
	}
}

func TestBFSVisitsOnce(t *testing.T) {
	g := Cycle(8)
	b := NewBFS(g)
	seen := map[NodeID]int{}
	for _, v := range b.Collect([]NodeID{0}, 8) {
		seen[v]++
	}
	for v, c := range seen {
		if c != 1 {
			t.Errorf("node %d visited %d times", v, c)
		}
	}
	if len(seen) != 8 {
		t.Errorf("reached %d nodes, want 8", len(seen))
	}
}

func TestBFSDuplicateSources(t *testing.T) {
	g := Path(5)
	b := NewBFS(g)
	if count := len(b.Collect([]NodeID{2, 2, 2}, 0)); count != 1 {
		t.Errorf("duplicate sources visited %d times, want 1", count)
	}
}

func TestBFSNegativeHops(t *testing.T) {
	g := Path(5)
	b := NewBFS(g)
	if count := len(b.Collect([]NodeID{2}, -1)); count != 0 {
		t.Errorf("h=-1 visited %d nodes, want 0", count)
	}
}

func TestVicinityMatchesDefinition(t *testing.T) {
	// On a 5x5 grid, 1-vicinity of center = center + 4 neighbors.
	g := Grid(5, 5)
	b := NewBFS(g)
	center := NodeID(12)
	v1 := b.SetVicinity([]NodeID{center}, 1, nil)
	if len(v1) != 5 {
		t.Fatalf("|V^1| of grid center = %d, want 5", len(v1))
	}
	v2 := b.SetVicinity([]NodeID{center}, 2, nil)
	if len(v2) != 13 {
		t.Fatalf("|V^2| of grid center = %d, want 13", len(v2))
	}
	if b.VicinitySize(center, 2) != 13 {
		t.Errorf("VicinitySize disagrees with Vicinity length")
	}
}

func TestVicinityZeroHop(t *testing.T) {
	g := Path(5)
	b := NewBFS(g)
	v := b.SetVicinity([]NodeID{3}, 0, nil)
	if len(v) != 1 || v[0] != 3 {
		t.Fatalf("0-vicinity = %v, want [3]", v)
	}
}

// TestBatchBFSEqualsUnion is the differential test for Algorithm 1: the
// multi-source traversal must produce exactly the union of per-source
// h-vicinities.
func TestBatchBFSEqualsUnion(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := randomGraph(200, 400, rng)
	b := NewBFS(g)
	for trial := 0; trial < 20; trial++ {
		k := 1 + rng.IntN(10)
		sources := make([]NodeID, k)
		for i := range sources {
			sources[i] = NodeID(rng.IntN(g.NumNodes()))
		}
		h := rng.IntN(4)

		batch := NewNodeSet(g.NumNodes(), b.SetVicinity(sources, h, nil))

		var union []NodeID
		for _, s := range sources {
			union = b.SetVicinity([]NodeID{s}, h, union)
		}
		want := NewNodeSet(g.NumNodes(), union)

		if !slices.Equal(batch.Members(), want.Members()) {
			t.Fatalf("trial %d: batch BFS (%d nodes) != union of vicinities (%d nodes)",
				trial, batch.Len(), want.Len())
		}
	}
}

func TestVicinityMonotone(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	g := randomGraph(100, 250, rng)
	b := NewBFS(g)
	for trial := 0; trial < 10; trial++ {
		u := NodeID(rng.IntN(g.NumNodes()))
		prev := -1
		for h := 0; h <= 4; h++ {
			size := b.VicinitySize(u, h)
			if size < prev {
				t.Fatalf("vicinity size decreased: |V^%d_%d| = %d < %d", h, u, size, prev)
			}
			prev = size
		}
	}
}

func TestEccentricity(t *testing.T) {
	g := Path(7)
	b := NewBFS(g)
	if e := b.Eccentricity(0); e != 6 {
		t.Errorf("Eccentricity(end) = %d, want 6", e)
	}
	if e := b.Eccentricity(3); e != 3 {
		t.Errorf("Eccentricity(middle) = %d, want 3", e)
	}
}

func TestNodesAtDistance(t *testing.T) {
	g := Grid(5, 5)
	b := NewBFS(g)
	ring := b.NodesAtDistance(12, 1, nil)
	if len(ring) != 4 {
		t.Errorf("grid center has %d nodes at distance 1, want 4", len(ring))
	}
	ring2 := b.NodesAtDistance(12, 2, nil)
	if len(ring2) != 8 {
		t.Errorf("grid center has %d nodes at distance 2, want 8", len(ring2))
	}
}

func TestBFSEpochWrap(t *testing.T) {
	g := Path(4)
	b := NewBFS(g)
	b.epoch = ^uint8(0) - 1 // force a wrap within two runs
	if n := b.VicinitySize(0, 3); n != 4 {
		t.Fatalf("pre-wrap vicinity = %d, want 4", n)
	}
	if n := b.VicinitySize(0, 3); n != 4 {
		t.Fatalf("post-wrap vicinity = %d, want 4", n)
	}
	if n := b.VicinitySize(3, 1); n != 2 {
		t.Fatalf("post-wrap vicinity = %d, want 2", n)
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(7, [][2]NodeID{{0, 1}, {1, 2}, {3, 4}})
	comp, count := Components(g)
	if count != 4 { // {0,1,2}, {3,4}, {5}, {6}
		t.Fatalf("component count = %d, want 4", count)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("nodes 0,1,2 should share a component")
	}
	if comp[3] != comp[4] {
		t.Error("nodes 3,4 should share a component")
	}
	if comp[0] == comp[3] || comp[5] == comp[6] {
		t.Error("separate components should differ")
	}
}

func TestLargestComponent(t *testing.T) {
	g := MustFromEdges(7, [][2]NodeID{{0, 1}, {1, 2}, {3, 4}})
	lc := LargestComponent(g)
	if len(lc) != 3 {
		t.Fatalf("largest component size = %d, want 3", len(lc))
	}
	want := []NodeID{0, 1, 2}
	for i, v := range lc {
		if v != want[i] {
			t.Fatalf("largest component = %v, want %v", lc, want)
		}
	}
}

func TestComponentSizes(t *testing.T) {
	g := MustFromEdges(7, [][2]NodeID{{0, 1}, {1, 2}, {3, 4}})
	sizes := ComponentSizes(g)
	want := []int{3, 2, 1, 1}
	if len(sizes) != len(want) {
		t.Fatalf("sizes = %v, want %v", sizes, want)
	}
	for i := range want {
		if sizes[i] != want[i] {
			t.Fatalf("sizes = %v, want %v", sizes, want)
		}
	}
}

func TestComputeStats(t *testing.T) {
	g := MustFromEdges(5, [][2]NodeID{{0, 1}, {1, 2}, {2, 0}})
	s := ComputeStats(g)
	if s.Nodes != 5 || s.Edges != 3 {
		t.Fatalf("stats = %+v", s)
	}
	if s.MinDegree != 0 || s.MaxDegree != 2 {
		t.Errorf("degree range = [%d,%d], want [0,2]", s.MinDegree, s.MaxDegree)
	}
	if s.Isolated != 2 {
		t.Errorf("isolated = %d, want 2", s.Isolated)
	}
	if s.Components != 3 {
		t.Errorf("components = %d, want 3", s.Components)
	}
	if s.LargestCompPct != 0.6 {
		t.Errorf("largest component pct = %f, want 0.6", s.LargestCompPct)
	}
}

func TestClusteringCoefficient(t *testing.T) {
	// triangle: every node fully clustered
	tri := Complete(3)
	if c := LocalClusteringCoefficient(tri, 0); c != 1 {
		t.Errorf("triangle cc = %g, want 1", c)
	}
	// star: center's neighbors never adjacent
	st := Star(5)
	if c := LocalClusteringCoefficient(st, 0); c != 0 {
		t.Errorf("star center cc = %g, want 0", c)
	}
	// degree < 2 → 0
	if c := LocalClusteringCoefficient(st, 1); c != 0 {
		t.Errorf("leaf cc = %g, want 0", c)
	}
	rng := rand.New(rand.NewPCG(12, 13))
	if avg := AvgClusteringCoefficient(tri, 0, rng); avg != 1 {
		t.Errorf("triangle avg cc = %g", avg)
	}
	if avg := AvgClusteringCoefficient(st, 0, rng); avg != 0 {
		t.Errorf("star avg cc = %g", avg)
	}
	// sampled estimate close to exact on a mixed graph
	g := randomGraph(300, 1500, rng)
	exact := AvgClusteringCoefficient(g, 0, rng)
	approx := AvgClusteringCoefficient(g, 200, rng)
	if math.Abs(exact-approx) > 0.1 {
		t.Errorf("sampled cc %g far from exact %g", approx, exact)
	}
	// empty graph
	if AvgClusteringCoefficient(&Graph{}, 0, rng) != 0 {
		t.Error("empty graph cc")
	}
}

func TestEstimateDiameter(t *testing.T) {
	g := Path(20)
	rng := rand.New(rand.NewPCG(7, 8))
	d := EstimateDiameter(g, 3, rng)
	if d != 19 {
		t.Errorf("path diameter estimate = %d, want 19", d)
	}
}

// randomGraph builds a random multigraph-ish edge set; the builder
// deduplicates.
func randomGraph(n, m int, rng *rand.Rand) *Graph {
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	return b.MustBuild()
}
