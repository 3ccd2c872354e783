package screen

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/stats"
)

// This file is the differential battery holding both entry points of
// the sweep engine to the test-only reference sweep. Every trial builds
// a seeded random workload (graph shape, event layout with deliberate
// ties and co-location, test parameters), runs the reference as the
// oracle, and demands the planner return the byte-identical top-k (and
// threshold) result — same pairs, same order, same Tau/Z/P bits — and
// the exhaustive Run the reference's corrected, ordered report. The
// battery runs 220 workloads; each trial exercises several k values and
// all three corrections, so the comparisons run to over a thousand.

// diffWorkload is one seeded random workload.
type diffWorkload struct {
	g     *graph.Graph
	store *events.Store
	pairs [][2]string
}

// randomDirected builds a small directed random graph (graphgen has no
// directed generator; the planner must handle directed CSRs too, where
// the prior reach bound stays disabled).
func randomDirected(n int, m int, rng *rand.Rand) *graph.Graph {
	b := graph.NewDirectedBuilder(n)
	seen := make(map[uint64]bool, m)
	for added := 0; added < m; {
		u, v := rng.IntN(n), rng.IntN(n)
		if u == v {
			continue
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		added++
	}
	return b.MustBuild()
}

// randomDiffWorkload generates the trial's graph and event layout. The
// layouts deliberately produce ties: events dropped on the same few
// community blocks yield many reference nodes with identical density
// vectors, and duplicate Add calls collapse to one occurrence.
func randomDiffWorkload(trial int, rng *rand.Rand) diffWorkload {
	var g *graph.Graph
	switch trial % 4 {
	case 0:
		cfg := graphgen.PlantedPartitionConfig{
			Communities: 6 + rng.IntN(6),
			Size:        20 + rng.IntN(20),
			DegreeIn:    float64(4 + rng.IntN(5)),
			DegreeOut:   0.5,
		}
		g = graphgen.PlantedPartition(cfg, rng)
	case 1:
		n := 150 + rng.IntN(250)
		g = graphgen.ErdosRenyi(n, int64(3*n), rng)
	case 2:
		g = graphgen.RMAT(graphgen.RMATConfig{Scale: 8, EdgeFactor: 4, A: 0.57, B: 0.19, C: 0.19}, rng)
	default:
		n := 150 + rng.IntN(250)
		g = randomDirected(n, 4*n, rng)
	}
	n := g.NumNodes()

	b := events.NewBuilder(n)
	numEvents := 4 + rng.IntN(4) // 4..7 events → 6..21 pairs
	// A shared "hot zone" seeds correlation and ties: several events
	// drop occurrences into the same narrow node range.
	zoneLo := rng.IntN(n / 2)
	zoneW := 1 + n/10
	for e := 0; e < numEvents; e++ {
		name := "ev-" + string(rune('a'+e))
		occ := 5 + rng.IntN(35)
		inZone := 0
		if e%2 == 0 {
			inZone = occ / 2 // co-located half → correlated pairs
		}
		for i := 0; i < occ; i++ {
			var v int
			if i < inZone {
				v = zoneLo + rng.IntN(zoneW)
			} else {
				v = rng.IntN(n)
			}
			b.Add(name, graph.NodeID(v))
			if rng.IntN(8) == 0 {
				b.Add(name, graph.NodeID(v)) // duplicate: collapses, a tie source
			}
		}
	}
	store := b.Build()
	return diffWorkload{g: g, store: store, pairs: AllPairs(store, 1)}
}

func truncTopK(ranked []PairResult, k int) []PairResult {
	if len(ranked) > k {
		return ranked[:k]
	}
	return ranked
}

func truncTheta(ranked []PairResult, alt stats.Alternative, theta float64) []PairResult {
	cut := len(ranked)
	for i, r := range ranked {
		if rankScore(alt, r.Tau) < theta {
			cut = i
			break
		}
	}
	return ranked[:cut]
}

// TestPlannerDifferentialBattery is the ≥200-workload equivalence
// sweep against the reference: planner top-k ≡ reference top-k,
// bit-identical scores, stable tie-break order, and the exhaustive Run
// ≡ reference plus FDR, FWER or no correction (pair order, AdjP,
// Significant, skip reasons, summary counts), across graph shapes
// (community, uniform, power-law, directed), h ∈ {1,2,3}, all three
// alternatives, k ∈ {1, 5, K²}, tie-heavy event layouts, occurrence
// thresholds that skip pairs, worker counts, memo on/off, and both
// bound regimes (statistical+deterministic, and deterministic-only on
// every fourth trial).
func TestPlannerDifferentialBattery(t *testing.T) {
	const trials = 220
	alts := []stats.Alternative{stats.Greater, stats.TwoSided, stats.Less}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewPCG(0xd1ff, uint64(trial)))
		w := randomDiffWorkload(trial, rng)

		base := Config{
			H:              1 + rng.IntN(3),
			SampleSize:     40 + rng.IntN(80),
			Alternative:    alts[trial%3],
			MinOccurrences: 1 + rng.IntN(6),
			Workers:        1 + 3*(trial%2),
			NoMemo:         trial%5 == 0,
			Seed:           uint64(trial)*0x9e37 + 1,
		}
		plan := PlanConfig{Config: base}
		plan.FirstCheckpoint = 8 // small samples still hit checkpoints
		if trial%4 == 3 {
			plan.BoundAlpha = -1 // deterministic-only pruning regime
		}

		raw, refBFS := referenceSweep(t, w.g, w.store, w.pairs, base)
		oracle := referenceRanked(raw, base.Alternative)

		for _, corr := range []Correction{FDR, FWER, None} {
			cfg := base
			cfg.Correction = corr
			got, err := Run(w.g, w.store, w.pairs, cfg)
			if err != nil {
				t.Fatalf("trial %d correction %d: %v", trial, corr, err)
			}
			sameRun(t, fmt.Sprintf("trial %d correction %d", trial, corr), got, referenceRun(raw, cfg))
			if base.NoMemo && got.BFSRuns != refBFS {
				t.Fatalf("trial %d: memo-less Run paid %d traversals, reference %d", trial, got.BFSRuns, refBFS)
			}
		}

		for _, k := range []int{1, 5, len(w.pairs)} {
			if k < 1 {
				continue
			}
			cfg := plan
			cfg.K = k
			got, err := Plan(w.g, w.store, w.pairs, cfg)
			if err != nil {
				t.Fatalf("trial %d k=%d: %v", trial, k, err)
			}
			if s := got.Stats; s.Skipped+s.PrunedPrior+s.PrunedEarly+s.FullTests != s.Candidates {
				t.Fatalf("trial %d k=%d: stats do not partition candidates: %+v", trial, k, s)
			}
			want := truncTopK(oracle, k)
			if len(got.Pairs) != len(want) {
				t.Fatalf("trial %d k=%d: planner returned %d pairs, oracle %d\n got %+v\nwant %+v",
					trial, k, len(got.Pairs), len(want), got.Pairs, want)
			}
			for i := range want {
				if got.Pairs[i] != want[i] {
					t.Fatalf("trial %d k=%d rank %d: planner diverged from the reference\n got %+v\nwant %+v",
						trial, k, i, got.Pairs[i], want[i])
				}
			}
		}

		// Threshold mode on every other trial: θ at the median tested
		// score (an exact-score crossing) and θ at 0.
		if trial%2 == 0 && len(oracle) > 0 {
			thetas := []float64{0, rankScore(base.Alternative, oracle[len(oracle)/2].Tau)}
			for _, theta := range thetas {
				if theta < -1 || theta > 1 {
					continue
				}
				cfg := plan
				cfg.K = 0
				cfg.Theta = theta
				got, err := Plan(w.g, w.store, w.pairs, cfg)
				if err != nil {
					t.Fatalf("trial %d θ=%g: %v", trial, theta, err)
				}
				want := truncTheta(oracle, base.Alternative, theta)
				if len(got.Pairs) != len(want) {
					t.Fatalf("trial %d θ=%.17g: planner returned %d pairs, oracle %d\n got %+v\nwant %+v",
						trial, theta, len(got.Pairs), len(want), got.Pairs, want)
				}
				for i := range want {
					if got.Pairs[i] != want[i] {
						t.Fatalf("trial %d θ=%.17g rank %d: diverged\n got %+v\nwant %+v",
							trial, theta, i, got.Pairs[i], want[i])
					}
				}
			}
		}
	}
}

// TestPlannerDifferentialEngines repeats a slice of the battery with a
// pooled BFS engine wired in (the tescd serving configuration), since
// the engine pool changes which evaluator planPair builds.
func TestPlannerDifferentialEngines(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		rng := rand.New(rand.NewPCG(0xe49, uint64(trial)))
		w := randomDiffWorkload(trial, rng)
		base := Config{
			H:           1 + rng.IntN(2),
			SampleSize:  60,
			Alternative: stats.Greater,
			Workers:     2,
			Seed:        uint64(trial) + 40,
			Engines:     graph.NewEnginePool(w.g),
		}
		raw, _ := referenceSweep(t, w.g, w.store, w.pairs, base)
		for _, noMemo := range []bool{false, true} {
			rc := base
			rc.NoMemo = noMemo
			full, err := Run(w.g, w.store, w.pairs, rc)
			if err != nil {
				t.Fatalf("trial %d: %v", trial, err)
			}
			sameRun(t, fmt.Sprintf("trial %d engine-pooled Run (no memo: %v)", trial, noMemo), full, referenceRun(raw, rc))
		}
		oracle := referenceRanked(raw, base.Alternative)
		cfg := PlanConfig{Config: base, K: 5, FirstCheckpoint: 8}
		got, err := Plan(w.g, w.store, w.pairs, cfg)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := truncTopK(oracle, 5)
		if len(got.Pairs) != len(want) {
			t.Fatalf("trial %d: %d pairs vs oracle %d", trial, len(got.Pairs), len(want))
		}
		for i := range want {
			if got.Pairs[i] != want[i] {
				t.Fatalf("trial %d rank %d: engine-pooled planner diverged\n got %+v\nwant %+v",
					trial, i, got.Pairs[i], want[i])
			}
		}
	}
}
