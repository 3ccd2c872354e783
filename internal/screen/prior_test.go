package screen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// priorWorkload is a ring lattice with a few random chords and a tail
// of isolated nodes, and events on arcs of the ring: at small h some
// pairs' vicinities are disjoint, some touch in a few nodes and some
// overlap widely. Some events also hold isolated nodes, one copies
// another's nodes, and some Add calls repeat a node.
func priorWorkload(rng *rand.Rand) (*graph.Graph, *events.Store) {
	ring := 60 + rng.IntN(100)
	n := ring + 5 + rng.IntN(10)
	b := graph.NewBuilder(n)
	for i := 0; i < ring; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%ring))
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+2)%ring))
	}
	for range rng.IntN(6) {
		b.AddEdge(graph.NodeID(rng.IntN(ring)), graph.NodeID(rng.IntN(ring)))
	}
	g := b.MustBuild()

	eb := events.NewBuilder(n)
	numEvents := 5 + rng.IntN(4)
	var first []graph.NodeID
	for e := range numEvents {
		name := fmt.Sprintf("ev-%d", e)
		start, width := rng.IntN(ring), 3+rng.IntN(25)
		for range 2 + rng.IntN(width) {
			v := graph.NodeID((start + rng.IntN(width)) % ring)
			eb.Add(name, v)
			if rng.IntN(5) == 0 {
				eb.Add(name, v) // a repeated occurrence collapses
			}
			if e == 0 {
				first = append(first, v)
			}
		}
		if e%3 == 1 {
			eb.Add(name, graph.NodeID(ring+rng.IntN(n-ring))) // an isolated occurrence
		}
	}
	for _, v := range first {
		eb.Add("copy", v) // the same node set as ev-0
	}
	return g, eb.Build()
}

// explicitOverlap counts the nodes within h of both events by marking
// each event's vicinity separately, and returns the size of their
// union: the inputs of priorTauBound computed without the planner's
// inclusion–exclusion.
func explicitOverlap(g *graph.Graph, store *events.Store, a, b string, h int) (overlap, union int) {
	in := make([]uint8, g.NumNodes())
	for bit, name := range []string{a, b} {
		for _, v := range graph.NewBFS(g).Collect(store.Set(name).Members(), h) {
			in[v] |= 1 << bit
		}
	}
	for _, m := range in {
		if m == 3 {
			overlap++
		}
		if m != 0 {
			union++
		}
	}
	return overlap, union
}

// TestPriorBoundHolds checks the prior bound against the exhaustive
// sweep: on random workloads at h = 1..3, with sample sizes both above
// and below the vicinity overlaps, every tested pair's τ is at most
// priorTauBound of its overlap, and the planner's overlap (cached ball
// sizes, inclusion–exclusion) equals the explicit count. The workloads
// must reach disjoint pairs, pairs whose τ equals the bound, and pairs
// whose overlap exceeds the sample.
func TestPriorBoundHolds(t *testing.T) {
	var disjoint, attained, capped, total int
	for trial := range 150 {
		rng := rand.New(rand.NewPCG(0x9a1, uint64(trial)))
		g, store := priorWorkload(rng)
		pairs := AllPairs(store, 1)
		cfg := Config{
			H:           1 + trial%3,
			SampleSize:  4 + rng.IntN(60),
			Alternative: stats.Greater,
			Seed:        uint64(trial) + 5,
			Workers:     2,
			NoMemo:      trial%2 == 0,
		}
		res, err := Run(g, store, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := sweepWorker{g: g, store: store, cfg: &PlanConfig{Config: cfg}, balls: new(ballSizes), bfs: graph.NewBFS(g), workerScratch: new(workerScratch)}
		for _, r := range res.Pairs {
			if r.Skipped != "" {
				continue
			}
			overlap, union := explicitOverlap(g, store, r.A, r.B, cfg.H)
			if _, err := w.population([2]string{r.A, r.B}); err != nil {
				t.Fatal(err)
			}
			if got := w.overlap(r.A, r.B); got != overlap || len(w.pop) != union {
				t.Fatalf("trial %d %s/%s: planner overlap %d of %d nodes, explicit %d of %d", trial, r.A, r.B, got, len(w.pop), overlap, union)
			}
			total++
			n := min(cfg.SampleSize, union)
			bound := priorTauBound(overlap, n)
			if r.Tau > bound {
				t.Fatalf("trial %d h=%d %s/%s: τ %.17g above the prior bound %.17g (overlap %d, n %d)",
					trial, cfg.H, r.A, r.B, r.Tau, bound, overlap, n)
			}
			switch {
			case overlap == 0:
				disjoint++
			case overlap >= 2*n && r.Tau > 0:
				capped++
			}
			if r.Tau == bound && bound < 1 {
				attained++
			}
		}
	}
	t.Logf("%d pairs: disjoint %d, attained %d, capped %d", total, disjoint, attained, capped)
	if disjoint == 0 || attained == 0 || capped == 0 {
		t.Fatalf("the workloads miss a case: disjoint %d, attained %d, capped %d", disjoint, attained, capped)
	}
}

func TestPriorTauBoundValues(t *testing.T) {
	cases := []struct {
		overlap, n int
		want       float64
	}{
		{0, 10, 0},
		{1, 5, 0.4},
		{3, 10, 3.0 * 16 / 90},
		{10, 10, 1},
		{11, 10, 1}, // the sample holds at most n overlap nodes
		{50, 10, 1},
		{0, 1, 1}, // too few references to test: never pruned
		{0, 0, 1},
	}
	for _, c := range cases {
		if got := priorTauBound(c.overlap, c.n); got != c.want {
			t.Errorf("priorTauBound(%d, %d) = %.17g, want %.17g", c.overlap, c.n, got, c.want)
		}
	}
	for n := 2; n < 40; n++ {
		for b := 1; b < 3*n; b++ {
			if priorTauBound(b, n) < priorTauBound(b-1, n) {
				t.Fatalf("bound falls from overlap %d to %d at n=%d", b-1, b, n)
			}
		}
	}
}

// priorEdgeFixture is a pair whose τ equals its prior bound. Node 0 is
// isolated and an occurrence of both events; node 1, also in a, has
// three neighbors. At h = 1 the population is all five nodes and only
// node 0 is within h of both events, so the bound is 2/5. Node 0 is
// (1, 1) and beats every other node in both keys, while the others
// are all 0 in b's: four concordant pairs, no discordant one, τ = 2/5.
func priorEdgeFixture() (*graph.Graph, *events.Store) {
	b := graph.NewBuilder(5)
	for v := 2; v < 5; v++ {
		b.AddEdge(1, graph.NodeID(v))
	}
	eb := events.NewBuilder(5)
	eb.Add("a", 0)
	eb.Add("a", 1)
	eb.Add("b", 0)
	return b.MustBuild(), eb.Build()
}

// TestPriorBoundEdgeRuns sets θ to a pair's τ where τ attains the prior
// bound: pruning is strict, so the pair runs and is reported; one ulp
// above, the prior prunes it before its draw.
func TestPriorBoundEdgeRuns(t *testing.T) {
	g, store := priorEdgeFixture()
	pairs := AllPairs(store, 1)
	base := Config{H: 1, Alternative: stats.Greater, Seed: 3, Workers: 1}
	run, err := Run(g, store, pairs, base)
	if err != nil {
		t.Fatal(err)
	}
	bound := priorTauBound(1, 5)
	if len(run.Pairs) != 1 || run.Pairs[0].Tau != bound {
		t.Fatalf("fixture lost its edge: τ %+v, bound %.17g", run.Pairs, bound)
	}
	for _, noMemo := range []bool{false, true} {
		cfg := base
		cfg.NoMemo = noMemo
		at, err := Plan(g, store, pairs, PlanConfig{Config: cfg, Theta: bound})
		if err != nil {
			t.Fatal(err)
		}
		if s := at.Stats; len(at.Pairs) != 1 || at.Pairs[0].Tau != bound || s.FullTests != 1 || s.PrunedPrior != 0 {
			t.Fatalf("no memo %v: θ at the bound: pairs %+v stats %+v, want the pair run and reported", noMemo, at.Pairs, s)
		}
		above, err := Plan(g, store, pairs, PlanConfig{Config: cfg, Theta: math.Nextafter(bound, 2)})
		if err != nil {
			t.Fatal(err)
		}
		if s := above.Stats; len(above.Pairs) != 0 || s.PrunedPrior != 1 || s.DensityEvals != 0 {
			t.Fatalf("no memo %v: θ one ulp above the bound: pairs %+v stats %+v, want the pair pruned by its prior", noMemo, above.Pairs, s)
		}
	}
}

// TestPriorPositiveTailOnly runs the fuzz fixture's threshold plan at
// θ = 0.1, whose left and right events have disjoint vicinities at
// h ≤ 2: a positive-tail plan prunes some pairs by their prior, a
// negative-tail or two-sided plan prunes none that way, and all three
// match the exhaustive ranking.
func TestPriorPositiveTailOnly(t *testing.T) {
	g, store := fuzzPlanSetup()
	pairs := AllPairs(store, 1)
	for _, h := range []int{1, 2} {
		for _, alt := range []stats.Alternative{stats.Greater, stats.Less, stats.TwoSided} {
			for _, k := range []int{0, 2} {
				cfg := PlanConfig{Config: Config{H: h, SampleSize: 50, Alternative: alt, Seed: 3, Workers: 2}, K: k}
				if k == 0 {
					cfg.Theta = 0.1
				}
				res, err := Plan(g, store, pairs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("h=%d alt=%v k=%d", h, alt, k)
				checkPlanStats(t, res.Stats, label)
				if alt != stats.Greater && res.Stats.PrunedPrior != 0 {
					t.Fatalf("%s: %d pairs pruned by the positive-tail prior", label, res.Stats.PrunedPrior)
				}
				if alt == stats.Greater && k == 0 && res.Stats.PrunedPrior == 0 {
					t.Fatalf("%s: the prior pruned nothing: %+v", label, res.Stats)
				}
				comparePlanned(t, res.Pairs, planOracle(t, g, store, pairs, cfg), label)
			}
		}
	}
}
