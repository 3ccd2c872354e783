package vicinity

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// Sizes returns the full |V^h_·| column for level h, concatenating its
// pages into a new slice.
func (idx *Index) Sizes(h int) []int32 {
	return slices.Concat(idx.Pages(h)...)
}

func TestBuildErrors(t *testing.T) {
	g := graph.Path(3)
	if _, err := Build(g, 0, Options{}); err == nil {
		t.Error("maxLevel 0 should fail")
	}
}

// bfsSizes is the index's test oracle, independent of graph.BFS: a
// level-by-level BFS with a []bool visited array returning |V^h_v| for
// h = 0..maxLevel.
func bfsSizes(g *graph.Graph, v graph.NodeID, maxLevel int) []int {
	visited := make([]bool, g.NumNodes())
	visited[v] = true
	frontier := []graph.NodeID{v}
	sizes := []int{1}
	for d := 1; d <= maxLevel; d++ {
		var next []graph.NodeID
		for _, x := range frontier {
			for _, u := range g.Neighbors(x) {
				if !visited[u] {
					visited[u] = true
					next = append(next, u)
				}
			}
		}
		sizes = append(sizes, sizes[d-1]+len(next))
		frontier = next
	}
	return sizes
}

func TestIndexMatchesDirectBFS(t *testing.T) {
	rng := rand.New(rand.NewPCG(61, 1))
	g := graphgen.ErdosRenyi(300, 900, rng)
	idx, err := Build(g, 3, Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	for v := 0; v < g.NumNodes(); v++ {
		sizes := bfsSizes(g, graph.NodeID(v), 3)
		for h := 1; h <= 3; h++ {
			want := sizes[h]
			if got := idx.Size(graph.NodeID(v), h); got != want {
				t.Fatalf("Size(%d, %d) = %d, want %d", v, h, got, want)
			}
		}
	}
}

func TestIndexPathGraph(t *testing.T) {
	g := graph.Path(10)
	idx, err := Build(g, 2, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// middle node: |V^1| = 3, |V^2| = 5; end node: |V^1| = 2, |V^2| = 3
	if idx.Size(5, 1) != 3 || idx.Size(5, 2) != 5 {
		t.Errorf("middle sizes = %d,%d", idx.Size(5, 1), idx.Size(5, 2))
	}
	if idx.Size(0, 1) != 2 || idx.Size(0, 2) != 3 {
		t.Errorf("end sizes = %d,%d", idx.Size(0, 1), idx.Size(0, 2))
	}
	if idx.MaxLevel() != 2 {
		t.Errorf("MaxLevel = %d", idx.MaxLevel())
	}
	if idx.Graph() != g {
		t.Error("Graph() identity")
	}
}

func TestIndexLevelBoundsPanic(t *testing.T) {
	g := graph.Path(4)
	idx, _ := Build(g, 2, Options{})
	for _, h := range []int{0, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("level %d should panic", h)
				}
			}()
			idx.Size(0, h)
		}()
	}
}

func TestSumSizesAndWeights(t *testing.T) {
	g := graph.Path(5)
	idx, _ := Build(g, 1, Options{})
	nodes := []graph.NodeID{0, 2, 4}
	// |V^1| = 2, 3, 2
	w := idx.Weights(nodes, 1)
	if len(w) != 3 || w[0] != 2 || w[1] != 3 || w[2] != 2 {
		t.Errorf("Weights = %v", w)
	}
	col := idx.Sizes(1)
	if len(col) != 5 || col[2] != 3 {
		t.Errorf("Sizes column = %v", col)
	}
}

func TestWorkerCountsAgree(t *testing.T) {
	rng := rand.New(rand.NewPCG(62, 1))
	g := graphgen.ErdosRenyi(200, 600, rng)
	one, _ := Build(g, 2, Options{Workers: 1})
	many, _ := Build(g, 2, Options{Workers: 8})
	for h := 1; h <= 2; h++ {
		a, b := one.Sizes(h), many.Sizes(h)
		for v := range a {
			if a[v] != b[v] {
				t.Fatalf("h=%d node %d: 1-worker %d != 8-worker %d", h, v, a[v], b[v])
			}
		}
	}
}

func TestApplyDeltaSingleInsert(t *testing.T) {
	// Start with a path, add a chord, verify affected entries match a
	// fresh rebuild.
	g := graph.Path(12)
	idx, _ := Build(g, 2, Options{})

	d := graph.NewDelta(g)
	changes, err := d.Apply([]graph.EdgeChange{{U: 2, V: 9, Insert: true}})
	if err != nil {
		t.Fatal(err)
	}
	g2 := d.Compact()
	recomputed, err := idx.ApplyDeltaDirty(g2, changes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(recomputed) == 0 {
		t.Fatal("ApplyDeltaDirty recomputed no entries for a real flip")
	}
	if idx.Graph() != g2 {
		t.Fatal("ApplyDelta did not rebind the index to the new graph")
	}

	fresh, _ := Build(g2, 2, Options{})
	for v := 0; v < 12; v++ {
		for h := 1; h <= 2; h++ {
			if idx.Size(graph.NodeID(v), h) != fresh.Size(graph.NodeID(v), h) {
				t.Fatalf("after update, Size(%d,%d) = %d, fresh = %d",
					v, h, idx.Size(graph.NodeID(v), h), fresh.Size(graph.NodeID(v), h))
			}
		}
	}
}

func TestApplyDeltaDisconnectingDeletion(t *testing.T) {
	// Deleting a bridge shrinks vicinities of nodes that can no longer
	// be reached from the deleted edge in the NEW graph — the case a
	// new-graph-only dirty scan would miss.
	g := graph.Path(8)
	idx, _ := Build(g, 3, Options{})

	d := graph.NewDelta(g)
	changes, err := d.Apply([]graph.EdgeChange{{U: 3, V: 4, Insert: false}})
	if err != nil {
		t.Fatal(err)
	}
	g2 := d.Compact()
	if _, err := idx.ApplyDeltaDirty(g2, changes, Options{}); err != nil {
		t.Fatal(err)
	}
	fresh, _ := Build(g2, 3, Options{})
	for v := 0; v < 8; v++ {
		for h := 1; h <= 3; h++ {
			if idx.Size(graph.NodeID(v), h) != fresh.Size(graph.NodeID(v), h) {
				t.Fatalf("after bridge deletion, Size(%d,%d) = %d, fresh = %d",
					v, h, idx.Size(graph.NodeID(v), h), fresh.Size(graph.NodeID(v), h))
			}
		}
	}
}

// TestClone checks both directions of copy-on-write: repairing the
// clone leaves the original as it was, and repairing the original
// leaves the clone as it was. The cycle spans three pages of nodes and
// the flip's endpoints sit on two of them.
func TestClone(t *testing.T) {
	const n = 2*pageRows + 10
	g := graph.Cycle(n)
	d := graph.NewDelta(g)
	changes, _ := d.Apply([]graph.EdgeChange{{U: 0, V: pageRows + 3, Insert: true}})
	g2 := d.Compact()
	before, _ := Build(g, 2, Options{})
	after, _ := Build(g2, 2, Options{})

	for _, repairClone := range []bool{true, false} {
		idx, _ := Build(g, 2, Options{})
		cp := idx.Clone()
		repaired, kept := cp, idx
		if !repairClone {
			repaired, kept = idx, cp
		}
		if _, err := repaired.ApplyDeltaDirty(g2, changes, Options{}); err != nil {
			t.Fatal(err)
		}
		if kept.Graph() != g {
			t.Errorf("repairClone=%v: the repair rebound the other copy", repairClone)
		}
		assertIndexesIdentical(t, fmt.Sprintf("repairClone=%v, repaired", repairClone), repaired, after)
		assertIndexesIdentical(t, fmt.Sprintf("repairClone=%v, other copy", repairClone), kept, before)
	}
}

// TestCloneRepairConcurrentReads reads the original's weights while a
// clone repairs on several workers; run under -race, a write into a
// page the two share is a reported race.
func TestCloneRepairConcurrentReads(t *testing.T) {
	rng := rand.New(rand.NewPCG(64, 26))
	g := graphgen.WattsStrogatz(3000, 3, 0.1, rng)
	idx, err := Build(g, 2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	want := idx.Weights(all, 2)

	cp := idx.Clone()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if got := idx.Weights(all, 2); !slices.Equal(got, want) {
				t.Error("the original's weights changed while a clone repaired")
				return
			}
		}
	}()
	stream := graphgen.NewFlipStream(g, 0.5, rng)
	cur := g
	for batch := 0; batch < 20; batch++ {
		d := graph.NewDelta(cur)
		applied, err := d.Apply(stream.Take(40))
		if err != nil {
			t.Fatal(err)
		}
		cur = d.Compact()
		if _, err := cp.ApplyDeltaDirty(cur, applied, Options{Workers: 2}); err != nil {
			t.Fatal(err)
		}
	}
	close(done)
	wg.Wait()
	fresh, _ := Build(cur, 2, Options{})
	assertIndexesIdentical(t, "repaired clone", cp, fresh)
}

func TestBuildForNodes(t *testing.T) {
	rng := rand.New(rand.NewPCG(63, 1))
	g := graphgen.ErdosRenyi(150, 450, rng)
	nodes := []graph.NodeID{3, 77, 149, 42}
	partial, err := BuildForNodes(g, nodes, 2, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	full, _ := Build(g, 2, Options{})
	for _, v := range nodes {
		for h := 1; h <= 2; h++ {
			if partial.Size(v, h) != full.Size(v, h) {
				t.Fatalf("partial Size(%d,%d) = %d, full = %d", v, h, partial.Size(v, h), full.Size(v, h))
			}
		}
	}
	if _, err := BuildForNodes(g, nodes, 0, Options{}); err == nil {
		t.Error("maxLevel 0 should fail")
	}
}

func TestApplyDeltaMismatch(t *testing.T) {
	idx, _ := Build(graph.Path(5), 1, Options{})
	if _, err := idx.ApplyDeltaDirty(graph.Path(6), nil, Options{}); err == nil {
		t.Error("delta with different node count should fail")
	}
	idx2, _ := Build(graph.Path(5), 1, Options{})
	if _, err := idx2.ApplyDeltaDirty(graph.Path(5), []graph.EdgeChange{{U: 0, V: 9, Insert: true}}, Options{}); err == nil {
		t.Error("change endpoint outside node range should fail")
	}
}
