package screen

import (
	"math"
	"sync"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// fuzzPlanFixture is a tiny fixed workload the fuzzer reuses across
// inputs: the interesting surface is the config space (malformed k, θ,
// bound parameters, degenerate event sets), not the graph.
var fuzzPlanFixture struct {
	once  sync.Once
	g     *graph.Graph
	store *events.Store
}

func fuzzPlanSetup() (*graph.Graph, *events.Store) {
	fuzzPlanFixture.once.Do(func() {
		b := graph.NewBuilder(40)
		for i := 0; i < 39; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(i+1))
		}
		for i := 0; i < 20; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+7)%40))
		}
		fuzzPlanFixture.g = b.MustBuild()
		eb := events.NewBuilder(40)
		// Degenerate shapes on purpose: a singleton event, a pair of
		// disjoint events, an event covering every node, overlapping
		// events with heavy ties.
		eb.Add("one", 3)
		for i := 0; i < 40; i++ {
			eb.Add("all", graph.NodeID(i))
		}
		for i := 0; i < 10; i++ {
			eb.Add("left", graph.NodeID(i))
			eb.Add("right", graph.NodeID(30+i%10))
			eb.Add("mid", graph.NodeID(15+i%5))
		}
		fuzzPlanFixture.store = eb.Build()
	})
	return fuzzPlanFixture.g, fuzzPlanFixture.store
}

// FuzzPlannerConfig throws arbitrary knob settings at Plan: it must
// reject the config exactly when PlanConfig.Normalize does, with the
// same error, or else return a result satisfying
// the planner invariants — never panic, never report a skipped pair,
// never exceed k, never return an unsorted or below-θ result, and
// always account for every candidate exactly once, and never prune by
// the positive-tail prior in another tail.
func FuzzPlannerConfig(f *testing.F) {
	f.Add(1, 0.0, 0.0, 0, 2, 50, uint8(0), uint64(1), 1, 1)
	f.Add(0, 0.5, 1e-6, 8, 1, 30, uint8(1), uint64(7), 2, 4)
	f.Add(5, 0.0, -1.0, 4, 3, 64, uint8(2), uint64(9), 3, 2)
	f.Add(-3, -2.0, 2.0, 1, 0, 0, uint8(9), uint64(0), 0, 0)
	f.Add(0, math.Inf(1), math.NaN(), -5, 99, 100000, uint8(3), uint64(42), -2, 16)
	// A positive-tail plan at θ = 0.1 and h = 2, where left and right
	// have disjoint vicinities: the prior prunes (TestPriorPositiveTailOnly
	// runs the same plan and checks that it does).
	f.Add(0, 0.1, 0.0, 0, 2, 50, uint8(stats.Greater), uint64(3), 1, 2)
	f.Fuzz(func(t *testing.T, k int, theta, boundAlpha float64, firstCP, h, sampleSize int, altRaw uint8, seed uint64, minOcc, workers int) {
		g, store := fuzzPlanSetup()
		// Clamp only the axes that drive runtime, not validity.
		if h > 4 {
			h = int(uint(h) % 5)
		}
		if sampleSize > 200 {
			sampleSize = int(uint(sampleSize)%200) + 1
		}
		if workers > 8 {
			workers = int(uint(workers) % 9)
		}
		if k > 1000 {
			k = int(uint(k) % 1001)
		}
		alt := stats.Alternative(altRaw % 4) // includes one out-of-range value
		cfg := PlanConfig{
			Config: Config{
				H:              h,
				SampleSize:     sampleSize,
				Alternative:    alt,
				MinOccurrences: minOcc,
				Workers:        workers,
				Seed:           seed,
			},
			K:               k,
			Theta:           theta,
			BoundAlpha:      boundAlpha,
			firstCheckpoint: firstCP,
		}
		pairs := AllPairs(store, 1)
		_, nerr := cfg.Normalize()
		res, err := Plan(g, store, pairs, cfg)
		if (err == nil) != (nerr == nil) || err != nil && err.Error() != nerr.Error() {
			t.Fatalf("Plan and Normalize disagree on %+v: Plan %v, Normalize %v", cfg, err, nerr)
		}
		if err != nil {
			return // rejected configs are fine; panics are not
		}
		s := res.Stats
		if s.Skipped+s.PrunedPrior+s.PrunedEarly+s.FullTests != s.Candidates {
			t.Fatalf("stats do not partition candidates: %+v", s)
		}
		if alt != stats.Greater && s.PrunedPrior != 0 {
			t.Fatalf("a %v plan pruned %d pairs by the positive-tail prior", alt, s.PrunedPrior)
		}
		if s.Candidates != len(pairs) {
			t.Fatalf("candidates = %d, want %d", s.Candidates, len(pairs))
		}
		if k > 0 && len(res.Pairs) > k {
			t.Fatalf("returned %d pairs with k=%d", len(res.Pairs), k)
		}
		for i := range res.Pairs {
			p := &res.Pairs[i]
			if p.Skipped != "" {
				t.Fatalf("skipped pair in results: %+v", p)
			}
			if p.AdjP != p.P {
				t.Fatalf("planner results carry raw p-values, got AdjP %g != P %g", p.AdjP, p.P)
			}
			if math.IsNaN(p.Tau) || p.Tau < -1 || p.Tau > 1 {
				t.Fatalf("tau out of range: %+v", p)
			}
			if i > 0 && rankLess(p, &res.Pairs[i-1], cfg.Alternative) {
				t.Fatalf("results not rank-ordered at %d: %+v", i, res.Pairs)
			}
			if k == 0 && rankScore(cfg.Alternative, p.Tau) < cfg.Theta {
				t.Fatalf("threshold mode returned below-θ pair: %+v (θ=%g)", p, cfg.Theta)
			}
		}
	})
}
