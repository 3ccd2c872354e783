package screen

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/stats"
)

// fixture: a community graph with one strongly attracting planted pair
// among many independent noise events.
func fixture(t *testing.T) (*graph.Graph, *events.Store) {
	t.Helper()
	rng := rand.New(rand.NewPCG(91, 1))
	cfg := graphgen.PlantedPartitionConfig{Communities: 25, Size: 30, DegreeIn: 8, DegreeOut: 0.5}
	g := graphgen.PlantedPartition(cfg, rng)
	n := g.NumNodes()

	b := events.NewBuilder(n)
	// planted pair: co-located in 10 communities
	for c := 0; c < 10; c++ {
		base := c * 30
		for i := 0; i < 5; i++ {
			b.Add("signal-a", graph.NodeID(base+rng.IntN(30)))
			b.Add("signal-b", graph.NodeID(base+rng.IntN(30)))
		}
	}
	// noise events: uniform occurrences
	for e := 0; e < 6; e++ {
		name := "noise-" + string(rune('a'+e))
		for i := 0; i < 40; i++ {
			b.Add(name, graph.NodeID(rng.IntN(n)))
		}
	}
	// a tiny event below thresholds
	b.Add("rare", 3)
	return g, b.Build()
}

func TestAllPairs(t *testing.T) {
	_, store := fixture(t)
	pairs := AllPairs(store, 1)
	// 9 events → 36 pairs
	if len(pairs) != 36 {
		t.Fatalf("pairs = %d, want 36", len(pairs))
	}
	// with a threshold the rare event drops out: 8 events → 28 pairs
	pairs = AllPairs(store, 5)
	if len(pairs) != 28 {
		t.Fatalf("pairs = %d, want 28", len(pairs))
	}
}

func TestRunFindsPlantedPair(t *testing.T) {
	g, store := fixture(t)
	res, err := Run(g, store, AllPairs(store, 5), Config{
		H:           2,
		SampleSize:  200,
		Alternative: stats.Greater,
		Seed:        7,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested == 0 {
		t.Fatal("nothing tested")
	}
	top := res.Pairs[0]
	if !(top.A == "signal-a" && top.B == "signal-b") {
		t.Errorf("top pair = %s vs %s (z=%.2f), want the planted signal", top.A, top.B, top.Z)
	}
	if !top.Significant {
		t.Errorf("planted pair not significant after FDR: %+v", top)
	}
	// results sorted by adjusted p
	for i := 1; i < res.Tested; i++ {
		if res.Pairs[i].Skipped == "" && res.Pairs[i-1].Skipped == "" &&
			res.Pairs[i].AdjP < res.Pairs[i-1].AdjP {
			t.Fatal("results not sorted by adjusted p")
		}
	}
}

// FDR control: with only null pairs, the rejection count should be far
// below the uncorrected expectation.
func TestRunFDRControlsNulls(t *testing.T) {
	rng := rand.New(rand.NewPCG(92, 1))
	g := graphgen.ErdosRenyi(1500, 6000, rng)
	b := events.NewBuilder(1500)
	for e := 0; e < 12; e++ { // 66 null pairs
		name := "n" + string(rune('a'+e))
		for i := 0; i < 50; i++ {
			b.Add(name, graph.NodeID(rng.IntN(1500)))
		}
	}
	store := b.Build()
	res, err := Run(g, store, AllPairs(store, 1), Config{
		H: 1, SampleSize: 150, Alternative: stats.Greater, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected > 2 {
		t.Errorf("FDR rejected %d of %d null pairs", res.Rejected, res.Tested)
	}
	// raw testing would reject more often than corrected
	raw, err := Run(g, store, AllPairs(store, 1), Config{
		H: 1, SampleSize: 150, Alternative: stats.Greater, Seed: 3, Correction: None,
	})
	if err != nil {
		t.Fatal(err)
	}
	if raw.Rejected < res.Rejected {
		t.Errorf("raw rejections %d below corrected %d", raw.Rejected, res.Rejected)
	}
}

func TestRunSkipsAndErrors(t *testing.T) {
	g, store := fixture(t)
	// min occurrences excludes the rare event pairings
	res, err := Run(g, store, AllPairs(store, 1), Config{
		H: 1, SampleSize: 100, MinOccurrences: 5, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Skipped == 0 {
		t.Error("expected skipped pairs for the rare event")
	}
	for _, p := range res.Pairs {
		if (p.A == "rare" || p.B == "rare") && p.Skipped == "" {
			t.Errorf("rare pair tested despite threshold: %+v", p)
		}
	}
	// invalid config
	if _, err := Run(g, store, nil, Config{H: 0}); err == nil {
		t.Error("H=0 accepted")
	}
}

// TestRunRejectsInvalidConfig is the regression test for an exhaustive
// sweep that "succeeded" with every pair skipped: an out-of-range alpha
// or sample size is an error from Run, Plan and Config.Normalize alike,
// while the zero values still select the defaults. The planner's own
// fields out of range are an error from PlanConfig.Normalize and Plan.
func TestRunRejectsInvalidConfig(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	for _, cfg := range []Config{
		{H: 1, Alpha: 1.5},
		{H: 1, Alpha: 1},
		{H: 1, Alpha: -0.1},
		{H: 1, Alpha: math.NaN()},
		{H: 1, SampleSize: 1},
		{H: 1, SampleSize: -3},
	} {
		if _, err := cfg.Normalize(); err == nil {
			t.Errorf("Normalize accepted %+v", cfg)
		}
		if res, err := Run(g, store, pairs, cfg); err == nil {
			t.Errorf("Run accepted %+v: %d tested, %d skipped", cfg, res.Tested, res.Skipped)
		}
		if _, err := Plan(g, store, pairs, PlanConfig{Config: cfg, K: 3}); err == nil {
			t.Errorf("Plan accepted %+v", cfg)
		}
	}
	for _, pcfg := range []PlanConfig{
		{K: 3, BoundAlpha: 1.5},
		{K: 3, BoundAlpha: 1},
		{K: 3, BoundAlpha: math.NaN()},
		{Theta: 0.1, BoundAlpha: 1},
		{K: -1},
		{Theta: 2},
		{Theta: math.NaN()},
	} {
		pcfg.Config = Config{H: 1, Seed: 1}
		if _, err := pcfg.Normalize(); err == nil {
			t.Errorf("PlanConfig.Normalize accepted K=%d Theta=%g BoundAlpha=%g", pcfg.K, pcfg.Theta, pcfg.BoundAlpha)
		}
		if _, err := Plan(g, store, pairs, pcfg); err == nil {
			t.Errorf("Plan accepted K=%d Theta=%g BoundAlpha=%g", pcfg.K, pcfg.Theta, pcfg.BoundAlpha)
		}
	}
	ok := Config{H: 1, SampleSize: 0, Alpha: 0, Seed: 1}
	if norm, err := ok.Normalize(); err != nil || norm.SampleSize != 900 || norm.Alpha != 0.05 {
		t.Fatalf("defaults: %+v, %v", norm, err)
	}
	if res, err := Run(g, store, pairs[:2], ok); err != nil || res.Tested != 2 {
		t.Fatalf("defaults: %+v, %v", res, err)
	}
}

func TestRunDeterministic(t *testing.T) {
	g, store := fixture(t)
	cfg := Config{H: 1, SampleSize: 100, Seed: 42, Workers: 3}
	a, err := Run(g, store, AllPairs(store, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(g, store, AllPairs(store, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Pairs {
		if a.Pairs[i] != b.Pairs[i] {
			t.Fatalf("run not deterministic at %d: %+v vs %+v", i, a.Pairs[i], b.Pairs[i])
		}
	}
}

func TestBonferroniMode(t *testing.T) {
	g, store := fixture(t)
	fdr, err := Run(g, store, AllPairs(store, 5), Config{H: 2, SampleSize: 150, Alternative: stats.Greater, Seed: 7, Correction: FDR})
	if err != nil {
		t.Fatal(err)
	}
	fwer, err := Run(g, store, AllPairs(store, 5), Config{H: 2, SampleSize: 150, Alternative: stats.Greater, Seed: 7, Correction: FWER})
	if err != nil {
		t.Fatal(err)
	}
	if fwer.Rejected > fdr.Rejected {
		t.Errorf("Bonferroni rejected more (%d) than BH (%d)", fwer.Rejected, fdr.Rejected)
	}
}

// TestProgressExactlyOncePerPair is the regression test for the
// progress-callback contention fix: with concurrent workers, Progress
// must be invoked exactly len(pairs) times, delivering each completion
// count 1..len(pairs) exactly once, so a max-folding consumer sees a
// monotone gauge ending at the total.
func TestProgressExactlyOncePerPair(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 1)

	var mu sync.Mutex
	var calls []int
	maxSeen := 0
	monotoneMax := true
	_, err := Run(g, store, pairs, Config{
		H:          1,
		SampleSize: 50,
		Workers:    8,
		Seed:       5,
		Progress: func(done, total int) {
			if total != len(pairs) {
				t.Errorf("total = %d, want %d", total, len(pairs))
			}
			mu.Lock() // test-side bookkeeping only; Run holds no lock here
			calls = append(calls, done)
			if done > maxSeen {
				maxSeen = done
			} else if done == maxSeen {
				monotoneMax = false // duplicate delivery
			}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(pairs) {
		t.Fatalf("Progress called %d times, want exactly %d", len(calls), len(pairs))
	}
	if !monotoneMax {
		t.Fatal("duplicate completion count delivered")
	}
	seen := make([]bool, len(pairs)+1)
	for _, done := range calls {
		if done < 1 || done > len(pairs) || seen[done] {
			t.Fatalf("completion count %d invalid or duplicated (calls %v)", done, calls)
		}
		seen[done] = true
	}
	if maxSeen != len(pairs) {
		t.Fatalf("max completion %d, want %d", maxSeen, len(pairs))
	}
}

// TestProgressSequentialIsMonotone pins the single-worker behavior:
// with one worker the raw call sequence itself is strictly monotone.
func TestProgressSequentialIsMonotone(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	var calls []int
	_, err := Run(g, store, pairs, Config{
		H: 1, SampleSize: 50, Workers: 1, Seed: 5,
		Progress: func(done, total int) { calls = append(calls, done) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != len(pairs) {
		t.Fatalf("Progress called %d times, want %d", len(calls), len(pairs))
	}
	for i, done := range calls {
		if done != i+1 {
			t.Fatalf("call %d reported %d, want %d (sequence %v)", i, done, i+1, calls)
		}
	}
}
