package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func randomTestGraph(t *testing.T, n, m int, seed uint64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed*3+1))
	b := NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refBFS is the test oracle for Collect: a plain FIFO-queue BFS with a
// []bool visited array. It returns the reached nodes in visit order and
// the depth of each.
func refBFS(g *Graph, sources []NodeID, h int) (order []NodeID, depth map[NodeID]int) {
	depth = make(map[NodeID]int)
	if h < 0 {
		return nil, depth
	}
	visited := make([]bool, g.NumNodes())
	for _, s := range sources {
		if !visited[s] {
			visited[s] = true
			depth[s] = 0
			order = append(order, s)
		}
	}
	for i := 0; i < len(order); i++ {
		v := order[i]
		if depth[v] == h {
			continue
		}
		for _, u := range g.Neighbors(v) {
			if !visited[u] {
				visited[u] = true
				depth[u] = depth[v] + 1
				order = append(order, u)
			}
		}
	}
	return order, depth
}

// checkCollect compares one Collect (order and level ends) with refBFS.
func checkCollect(t *testing.T, b *BFS, sources []NodeID, h int) {
	t.Helper()
	want, depth := refBFS(b.Graph(), sources, h)
	if got := b.Collect(sources, h); !slices.Equal(got, want) {
		t.Fatalf("sources=%v h=%d: Collect %v, reference %v", sources, h, got, want)
	}
	// ends[d] counts the nodes at depth <= d, up to the deepest one.
	var wantEnds []int
	for i, v := range want {
		if d := depth[v]; d == len(wantEnds) {
			wantEnds = append(wantEnds, i+1)
		} else {
			wantEnds[d] = i + 1
		}
	}
	if h >= 0 && len(want) == 0 {
		wantEnds = []int{0}
	}
	if ends := b.LevelEnds(); !slices.Equal(ends, wantEnds) {
		t.Fatalf("sources=%v h=%d: level ends %v, want %v", sources, h, ends, wantEnds)
	}
}

// TestCollectMatchesReferenceBFS pins Collect's contract against the
// queue oracle: the exact visit order (what the flat density kernels
// rely on for bit-identical intensity sums) and the level ends, for
// single sources, duplicate sources, h = 0, h < 0 and h beyond every
// eccentricity.
func TestCollectMatchesReferenceBFS(t *testing.T) {
	g := randomTestGraph(t, 200, 600, 12)
	b := NewBFS(g)
	for _, h := range []int{-1, 0, 1, 2, 3, g.NumNodes()} {
		for v := 0; v < g.NumNodes(); v += 7 {
			checkCollect(t, b, []NodeID{NodeID(v)}, h)
		}
		// Multi-source with duplicate sources, like the batch samplers use.
		checkCollect(t, b, []NodeID{3, 9, 3, 27}, h)
	}
	checkCollect(t, b, nil, 2)
}

// TestDistanceQueriesMatchReferenceBFS pins Eccentricity and
// NodesAtDistance against the queue oracle's depths.
func TestDistanceQueriesMatchReferenceBFS(t *testing.T) {
	g := randomTestGraph(t, 120, 200, 5)
	b := NewBFS(g)
	for u := 0; u < g.NumNodes(); u += 5 {
		src := NodeID(u)
		order, depth := refBFS(g, []NodeID{src}, g.NumNodes())
		ecc := 0
		for _, d := range depth {
			ecc = max(ecc, d)
		}
		if got := b.Eccentricity(src); got != ecc {
			t.Fatalf("Eccentricity(%d) = %d, want %d", u, got, ecc)
		}
		for d := -1; d <= ecc+1; d++ {
			var want []NodeID
			for _, v := range order {
				if depth[v] == d {
					want = append(want, v)
				}
			}
			if got := b.NodesAtDistance(src, d, nil); !slices.Equal(got, want) {
				t.Fatalf("NodesAtDistance(%d,%d) = %v, want %v", u, d, got, want)
			}
		}
	}
}

// TestCollectNegativeDepth pins the h < 0 no-op: nothing visited, no
// levels.
func TestCollectNegativeDepth(t *testing.T) {
	g := randomTestGraph(t, 10, 20, 1)
	b := NewBFS(g)
	if got := b.Collect([]NodeID{0}, -1); len(got) != 0 {
		t.Fatalf("Collect(h=-1) visited %d nodes", len(got))
	}
	if ends := b.LevelEnds(); len(ends) != 0 {
		t.Fatalf("LevelEnds after h=-1 = %v, want none", ends)
	}
}

// TestEnginePool checks the pool's graph binding: engines for the
// pool's graph round-trip, foreign engines are dropped instead of
// recycled into the wrong snapshot's pool.
func TestEnginePool(t *testing.T) {
	g1 := randomTestGraph(t, 50, 100, 2)
	g2 := randomTestGraph(t, 50, 100, 3)
	pool := NewEnginePool(g1)
	e := pool.Get()
	if e.Graph() != g1 {
		t.Fatal("pooled engine bound to wrong graph")
	}
	pool.Put(e)
	// sync.Pool may drop, but not immediately in a quiet test — except
	// under -race, which drops Put items at random on purpose.
	if again := pool.Get(); again != e && !raceEnabled {
		t.Error("engine was not recycled")
	}
	foreign := NewBFS(g2)
	pool.Put(foreign) // must not panic, must not recycle
	got := pool.Get()
	if got == foreign {
		t.Fatal("foreign engine recycled into the pool")
	}
	pool.Put(nil) // tolerated
}

// checkPrefix asserts CollectPrefix's contract against Collect: a
// prefix of the full vicinity in the same order, at least limit nodes
// long unless it is the whole vicinity, and overshooting limit by less
// than one adjacency row.
func checkPrefix(t *testing.T, b *BFS, src NodeID, h, limit int) {
	t.Helper()
	full := slices.Clone(b.Collect([]NodeID{src}, h))
	got := b.CollectPrefix(src, h, limit)
	if len(got) > len(full) || !slices.Equal(got, full[:len(got)]) {
		t.Fatalf("src=%d h=%d limit=%d: CollectPrefix %v is not a prefix of Collect %v", src, h, limit, got, full)
	}
	if len(got) < limit && len(got) != len(full) {
		t.Fatalf("src=%d h=%d limit=%d: prefix of %d nodes stops short of the %d-node vicinity", src, h, limit, len(got), len(full))
	}
	maxDeg := 0
	for v := range b.Graph().NumNodes() {
		maxDeg = max(maxDeg, b.Graph().Degree(NodeID(v)))
	}
	if over := len(got) - max(limit, 1); over > 0 && over >= maxDeg {
		t.Fatalf("src=%d h=%d limit=%d: prefix of %d nodes overshoots by a row or more", src, h, limit, len(got))
	}
}

// TestCollectPrefix sweeps every limit from 0 to past the vicinity for
// a spread of sources and depths.
func TestCollectPrefix(t *testing.T) {
	g := randomTestGraph(t, 150, 400, 21)
	b := NewBFS(g)
	for _, h := range []int{-1, 0, 1, 2, 3} {
		for v := 0; v < g.NumNodes(); v += 11 {
			size := len(b.Collect([]NodeID{NodeID(v)}, h))
			for limit := 0; limit <= size+2; limit++ {
				checkPrefix(t, b, NodeID(v), h, limit)
			}
		}
	}
}

// FuzzCollectPrefix checks the prefix contract on random graphs,
// sources, depths and limits.
func FuzzCollectPrefix(f *testing.F) {
	f.Add(uint64(1), uint16(40), uint16(3), uint8(2), uint16(7))
	f.Add(uint64(9), uint16(200), uint16(0), uint8(3), uint16(1))
	f.Add(uint64(5), uint16(1), uint16(0), uint8(1), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, n, src uint16, h uint8, limit uint16) {
		nodes := int(n%300) + 1
		g := randomTestGraph(t, nodes, 3*nodes, seed)
		checkPrefix(t, NewBFS(g), NodeID(int(src)%nodes), int(h%5), int(limit%400))
	})
}
