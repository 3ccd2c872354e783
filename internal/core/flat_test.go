package core

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
)

// randomGraph builds a seeded sparse random graph.
func randomGraph(t testing.TB, n int, m int, seed uint64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// randomProblem plants two random events (and optionally intensities) on g.
func randomProblem(t testing.TB, g *graph.Graph, occ int, intensities bool, seed uint64) *Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed^0x5151, seed))
	n := g.NumNodes()
	pick := func() []graph.NodeID {
		vs := make([]graph.NodeID, occ)
		for i := range vs {
			vs[i] = graph.NodeID(rng.IntN(n))
		}
		return vs
	}
	va := graph.NewNodeSet(n, pick())
	vb := graph.NewNodeSet(n, pick())
	p := MustNewProblem(g, va, vb)
	if intensities {
		ia := make([]float64, n)
		ib := make([]float64, n)
		for _, v := range va.Members() {
			ia[v] = 0.25 + rng.Float64()
		}
		for _, v := range vb.Members() {
			ib[v] = 0.25 + rng.Float64()
		}
		if err := p.SetIntensities(ia, ib); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// queueBFS is the test-only traversal oracle, independent of
// graph.BFS: a plain FIFO-queue BFS with a []bool visited array,
// returning the nodes within h hops of r in BFS visit order.
func queueBFS(g *graph.Graph, r graph.NodeID, h int) []graph.NodeID {
	visited := make([]bool, g.NumNodes())
	visited[r] = true
	order, depth := []graph.NodeID{r}, []int{0}
	for i := 0; i < len(order); i++ {
		if depth[i] == h {
			continue
		}
		for _, u := range g.Neighbors(order[i]) {
			if !visited[u] {
				visited[u] = true
				order = append(order, u)
				depth = append(depth, depth[i]+1)
			}
		}
	}
	return order
}

// evalReference is the oracle density kernel: Eq. 2's occurrence
// counts and intensity sums from per-node set probes over queueBFS's
// visit order.
func evalReference(p *Problem, h int, r graph.NodeID) Density {
	var d Density
	ia, ib := p.IntensityA, p.IntensityB
	for _, v := range queueBFS(p.G, r, h) {
		d.VicinitySize++
		inA, inB := p.Va.Contains(v), p.Vb.Contains(v)
		if inA {
			d.CountA++
			if ia != nil {
				d.SumA += ia[v]
			} else {
				d.SumA++
			}
		}
		if inB {
			d.CountB++
			if ib != nil {
				d.SumB += ib[v]
			} else {
				d.SumB++
			}
		}
		if inA || inB {
			d.CountUnion++
		}
	}
	return d
}

// TestFlatKernelMatchesReference pins the tentpole invariant: the flat
// density kernel over Collect returns bit-identical Density records to
// the oracle kernel, h = 1..3, with and without intensities. Floats are
// compared with ==: the flat kernel must accumulate in the oracle's
// exact visit order. Subtest names keep their directed=false prefix so
// their IDs stay stable for tools that track them.
func TestFlatKernelMatchesReference(t *testing.T) {
	for _, intensities := range []bool{false, true} {
		for h := 1; h <= 3; h++ {
			name := fmt.Sprintf("directed=false/intensities=%v/h=%d", intensities, h)
			t.Run(name, func(t *testing.T) {
				g := randomGraph(t, 400, 1000, uint64(h)*7+11)
				p := randomProblem(t, g, 40, intensities, uint64(h)*13+3)
				flat := NewDensityEvaluator(p, h)
				for v := 0; v < g.NumNodes(); v++ {
					df := flat.Eval(graph.NodeID(v))
					if dr := evalReference(p, h, graph.NodeID(v)); df != dr {
						t.Fatalf("node %d: flat %+v != reference %+v", v, df, dr)
					}
				}
				if flat.BFSCount != int64(g.NumNodes()) {
					t.Fatalf("BFSCount %d, want one per node (%d)", flat.BFSCount, g.NumNodes())
				}
			})
		}
	}
}

// TestMultiEvaluatorMatchesReference checks that one MultiEvaluator BFS
// reproduces, for every event of a K-event vocabulary, exactly the
// occurrence count and vicinity size the queue oracle yields.
func TestMultiEvaluatorMatchesReference(t *testing.T) {
	const K = 5
	for h := 1; h <= 3; h++ {
		t.Run(fmt.Sprintf("directed=false/h=%d", h), func(t *testing.T) {
			g := randomGraph(t, 300, 900, uint64(h)*29+1)
			rng := rand.New(rand.NewPCG(99, uint64(h)))
			n := g.NumNodes()
			sets := make([]*graph.NodeSet, K)
			for k := range sets {
				vs := make([]graph.NodeID, 30)
				for i := range vs {
					vs[i] = graph.NodeID(rng.IntN(n))
				}
				sets[k] = graph.NewNodeSet(n, vs)
			}
			mem, err := NewEventMembership(n, sets)
			if err != nil {
				t.Fatal(err)
			}
			multi, err := NewMultiEvaluator(g, mem, h, nil)
			if err != nil {
				t.Fatal(err)
			}
			counts := make([]int32, K)
			for v := 0; v < n; v += 3 {
				size := multi.Eval(graph.NodeID(v), counts)
				vic := queueBFS(g, graph.NodeID(v), h)
				if size != len(vic) {
					t.Fatalf("node %d: size %d != |vicinity| %d", v, size, len(vic))
				}
				vs := graph.NewNodeSet(n, vic)
				for k, s := range sets {
					if want := s.IntersectLen(vs); int(counts[k]) != want {
						t.Fatalf("node %d event %d: count %d != %d", v, k, counts[k], want)
					}
				}
			}
		})
	}
}

// TestPooledEnginesIdenticalResults runs the same test with and without
// a shared engine pool: pooling is invisible in the statistics.
func TestPooledEnginesIdenticalResults(t *testing.T) {
	g := randomGraph(t, 400, 1200, 5)
	p := randomProblem(t, g, 40, false, 6)
	base := Options{H: 2, SampleSize: 120, Alpha: 0.05, Rand: rand.New(rand.NewPCG(9, 9))}
	r0, err := Test(p, base)
	if err != nil {
		t.Fatal(err)
	}
	pooled := base
	pooled.Rand = rand.New(rand.NewPCG(9, 9))
	pooled.Engines = graph.NewEnginePool(g)
	pooled.Sampler = &BatchBFSSampler{Engines: pooled.Engines}
	r1, err := Test(p, pooled)
	if err != nil {
		t.Fatal(err)
	}
	if r0.Tau != r1.Tau || r0.Z != r1.Z || r0.P != r1.P || r0.N != r1.N {
		t.Fatalf("pooled result diverges: %+v vs %+v", r0, r1)
	}
	for i := range r0.SA {
		if r0.SA[i] != r1.SA[i] || r0.SB[i] != r1.SB[i] {
			t.Fatalf("density vector diverges at %d", i)
		}
	}
}
