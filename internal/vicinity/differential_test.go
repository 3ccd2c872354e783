package vicinity

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// The differential property behind the dynamic-graph subsystem: an
// index maintained incrementally through ApplyDelta must stay
// *identical* to one rebuilt from scratch — every |V^h_v| entry, every
// level, at every checkpoint — across a long randomized stream of edge
// insertions and deletions. 10,000 seeded flips run across vicinity
// levels h = 1..3.

// diffConfig is one leg of the differential sweep.
type diffConfig struct {
	name       string
	maxLevel   int
	flips      int
	checkEvery int
	seed       uint64
}

func diffConfigs() []diffConfig {
	return []diffConfig{
		{name: "undirected/h=1", maxLevel: 1, flips: 4000, checkEvery: 100, seed: 101},
		{name: "undirected/h=2", maxLevel: 2, flips: 4000, checkEvery: 100, seed: 102},
		{name: "undirected/h=3", maxLevel: 3, flips: 2000, checkEvery: 100, seed: 103},
	}
}

// diffGraph builds the starting graph for a leg: a sparse small-world
// graph, small enough that from-scratch rebuilds at every checkpoint
// stay cheap.
func diffGraph(rng *rand.Rand) *graph.Graph {
	return graphgen.WattsStrogatz(500, 2, 0.1, rng)
}

// assertIndexesIdentical fails unless every entry of every level agrees.
func assertIndexesIdentical(t *testing.T, ctx string, got, want *Index) {
	t.Helper()
	if got.MaxLevel() != want.MaxLevel() {
		t.Fatalf("%s: maxLevel %d != %d", ctx, got.MaxLevel(), want.MaxLevel())
	}
	for h := 1; h <= want.MaxLevel(); h++ {
		g, w := got.Sizes(h), want.Sizes(h)
		for v := range w {
			if g[v] != w[v] {
				t.Fatalf("%s: Size(%d, %d) = %d, rebuild says %d", ctx, v, h, g[v], w[v])
			}
		}
	}
}

// TestDifferentialApplyDelta drives 10k seeded random edge flips
// through Delta + ApplyDelta, one flip per delta, and asserts the
// incrementally maintained index is identical to a from-scratch Build
// at every checkpoint.
func TestDifferentialApplyDelta(t *testing.T) {
	total := 0
	for _, cfg := range diffConfigs() {
		cfg := cfg
		total += cfg.flips
		t.Run(cfg.name, func(t *testing.T) {
			rng := rand.New(rand.NewPCG(cfg.seed, 0xd1ff))
			g := diffGraph(rng)
			idx, err := Build(g, cfg.maxLevel, Options{})
			if err != nil {
				t.Fatal(err)
			}
			stream := graphgen.NewFlipStream(g, 0.5, rng)
			d := graph.NewDelta(g)
			edges := g.NumEdges()
			for i := 1; i <= cfg.flips; i++ {
				flip := stream.Next()
				applied, err := d.Apply([]graph.EdgeChange{flip})
				if err != nil {
					t.Fatalf("flip %d (%+v): %v", i, flip, err)
				}
				if len(applied) != 1 {
					t.Fatalf("flip %d (%+v): stream emitted a no-op", i, flip)
				}
				if flip.Insert {
					edges++
				} else {
					edges--
				}
				g = d.Compact()
				if _, err := idx.ApplyDeltaDirty(g, applied, Options{Workers: 1}); err != nil {
					t.Fatalf("flip %d (%+v): %v", i, flip, err)
				}
				if i%cfg.checkEvery == 0 || i == cfg.flips {
					if g.NumEdges() != edges {
						t.Fatalf("flip %d: graph has %d edges, the flips imply %d", i, g.NumEdges(), edges)
					}
					fresh, err := Build(g, cfg.maxLevel, Options{})
					if err != nil {
						t.Fatal(err)
					}
					assertIndexesIdentical(t, fmt.Sprintf("after flip %d", i), idx, fresh)
				}
			}
		})
	}
	if total < 10000 {
		t.Fatalf("differential sweep covers %d flips, want >= 10000", total)
	}
}

// TestDifferentialApplyDeltaBatched does the same with batches of flips
// per ApplyDelta call — the grouped-mutation path the server's edge
// endpoint exercises — including batches that contain cancelling pairs.
// The subtest keeps its directed=false name so its ID stays stable for
// tools that track it.
func TestDifferentialApplyDeltaBatched(t *testing.T) {
	t.Run("directed=false", func(t *testing.T) {
		rng := rand.New(rand.NewPCG(77, 0xba7c4))
		g := diffGraph(rng)
		const maxLevel = 2
		idx, err := Build(g, maxLevel, Options{})
		if err != nil {
			t.Fatal(err)
		}
		stream := graphgen.NewFlipStream(g, 0.5, rng)
		for batch := 0; batch < 25; batch++ {
			d := graph.NewDelta(g)
			applied, err := d.Apply(stream.Take(64))
			if err != nil {
				t.Fatal(err)
			}
			g = d.Compact()
			if _, err := idx.ApplyDeltaDirty(g, applied, Options{}); err != nil {
				t.Fatal(err)
			}
			fresh, err := Build(g, maxLevel, Options{})
			if err != nil {
				t.Fatal(err)
			}
			assertIndexesIdentical(t, fmt.Sprintf("after batch %d", batch), idx, fresh)
		}
	})
}

// TestFlipStreamReproducible pins the workload generator: the same seed
// must replay the same flips, or the differential evidence would not
// transfer across runs.
func TestFlipStreamReproducible(t *testing.T) {
	mk := func() []graph.EdgeChange {
		rng := rand.New(rand.NewPCG(5, 5))
		return graphgen.NewFlipStream(graphgen.WattsStrogatz(200, 2, 0.2, rng), 0.5, rng).Take(500)
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("flip %d differs across identically seeded streams: %+v vs %+v", i, a[i], b[i])
		}
	}
}
