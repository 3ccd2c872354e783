package screen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// planOracle derives the planner's expected output from the reference
// sweep: its tested pairs in the planner's total order, cut to top-k
// (or everything at θ). The reference's raw-p results (AdjP == P,
// Significant = P < α) are exactly the planner's semantics, so whole
// PairResults compare field-for-field.
func planOracle(t *testing.T, g *graph.Graph, store *events.Store, pairs [][2]string, cfg PlanConfig) []PairResult {
	t.Helper()
	raw, _ := referenceSweep(t, g, store, pairs, cfg.Config)
	out := referenceRanked(raw, cfg.Alternative)
	if cfg.K > 0 {
		if len(out) > cfg.K {
			out = out[:cfg.K]
		}
		return out
	}
	cut := len(out)
	for i, r := range out {
		if rankScore(cfg.Alternative, r.Tau) < cfg.Theta {
			cut = i
			break
		}
	}
	return out[:cut]
}

func comparePlanned(t *testing.T, got, want []PairResult, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: planner returned %d pairs, oracle %d\n got: %+v\nwant: %+v", label, len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: rank %d diverged\n got: %+v\nwant: %+v", label, i, got[i], want[i])
		}
	}
}

func checkPlanStats(t *testing.T, st PlanStats, label string) {
	t.Helper()
	if st.Skipped+st.PrunedEarly+st.PrunedPrior+st.FullTests != st.Candidates {
		t.Fatalf("%s: stats do not partition the candidates: %+v", label, st)
	}
}

func TestPlanFindsPlantedPair(t *testing.T) {
	g, store := fixture(t)
	cfg := PlanConfig{
		Config: Config{H: 2, SampleSize: 200, Alternative: stats.Greater, Seed: 7, Workers: 4, MinOccurrences: 5},
		K:      1,
	}
	res, err := Plan(g, store, AllPairs(store, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 1 {
		t.Fatalf("k=1 returned %d pairs", len(res.Pairs))
	}
	top := res.Pairs[0]
	if !(top.A == "signal-a" && top.B == "signal-b") {
		t.Errorf("top pair = %s vs %s (tau=%.3f), want the planted signal", top.A, top.B, top.Tau)
	}
	checkPlanStats(t, res.Stats, "k=1")
	if res.Stats.Candidates != 28 {
		t.Errorf("candidates = %d, want 28", res.Stats.Candidates)
	}
	// The planner must agree with the exhaustive sweep bit-for-bit.
	comparePlanned(t, res.Pairs, planOracle(t, g, store, AllPairs(store, 5), cfg), "k=1")
}

func TestPlanTopKMatchesRunOnFixture(t *testing.T) {
	g, store := fixture(t)
	for _, k := range []int{1, 3, 28, 100} {
		for _, alt := range []stats.Alternative{stats.Greater, stats.TwoSided, stats.Less} {
			cfg := PlanConfig{
				Config: Config{H: 2, SampleSize: 150, Alternative: alt, Seed: 11, Workers: 3, MinOccurrences: 5},
				K:      k,
			}
			res, err := Plan(g, store, AllPairs(store, 5), cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkPlanStats(t, res.Stats, "fixture")
			comparePlanned(t, res.Pairs, planOracle(t, g, store, AllPairs(store, 5), cfg), "fixture")
		}
	}
}

func TestPlanThresholdMode(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	base := Config{H: 2, SampleSize: 150, Alternative: stats.Greater, Seed: 11, MinOccurrences: 5}

	// Oracle scores, ranked.
	all := planOracle(t, g, store, pairs, PlanConfig{Config: base, K: len(pairs)})
	if len(all) < 3 {
		t.Fatalf("fixture tested only %d pairs", len(all))
	}
	mid := rankScore(stats.Greater, all[1].Tau)

	cfg := PlanConfig{Config: base, Theta: mid}
	res, err := Plan(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanStats(t, res.Stats, "threshold")
	comparePlanned(t, res.Pairs, planOracle(t, g, store, pairs, cfg), "threshold")
	for _, p := range res.Pairs {
		if rankScore(stats.Greater, p.Tau) < mid {
			t.Fatalf("threshold mode returned a below-θ pair: %+v", p)
		}
	}
}

// TestPlanThresholdExactlyAtScore is the θ-crossing adversarial case:
// the bar sits exactly on a pair's true score. Pruning is strict
// (< bar), so the pair must survive and be reported; nudging θ one ulp
// above the score must exclude it.
func TestPlanThresholdExactlyAtScore(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	base := Config{H: 2, SampleSize: 150, Alternative: stats.Greater, Seed: 11, MinOccurrences: 5}
	all := planOracle(t, g, store, pairs, PlanConfig{Config: base, K: len(pairs)})

	for _, probe := range []int{0, 1, len(all) / 2, len(all) - 1} {
		want := all[probe]
		score := rankScore(stats.Greater, want.Tau)

		at, err := Plan(g, store, pairs, PlanConfig{Config: base, Theta: score})
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, p := range at.Pairs {
			if p == want {
				found = true
			}
			if rankScore(stats.Greater, p.Tau) < score {
				t.Fatalf("θ=score returned a below-θ pair: %+v", p)
			}
		}
		if !found {
			t.Fatalf("pair with score exactly at θ=%.17g was dropped (probe %d): %+v\ngot %+v", score, probe, want, at.Pairs)
		}
		comparePlanned(t, at.Pairs, planOracle(t, g, store, pairs, PlanConfig{Config: base, Theta: score}), "θ=score")

		if score < 1 {
			above, err := Plan(g, store, pairs, PlanConfig{Config: base, Theta: math.Nextafter(score, 2)})
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range above.Pairs {
				if p == want {
					t.Fatalf("pair below θ reported: %+v", p)
				}
			}
		}
	}
}

func TestPlanConfigValidation(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	bad := []PlanConfig{
		{Config: Config{H: 0}, K: 1},
		{Config: Config{H: 1, SampleSize: 1}, K: 1},
		{Config: Config{H: 1, Alpha: 1.5}, K: 1},
		{Config: Config{H: 1, Alpha: math.NaN()}, K: 1},
		{Config: Config{H: 1}, K: -1},
		{Config: Config{H: 1}, K: 2, Theta: 0.5},        // modes are exclusive
		{Config: Config{H: 1}, K: 0, Theta: 1.5},        // θ out of range
		{Config: Config{H: 1}, K: 0, Theta: math.NaN()}, // θ NaN
		{Config: Config{H: 1}, K: 1, BoundAlpha: 1},     // risk ≥ 1
		{Config: Config{H: 1}, K: 1, BoundAlpha: math.NaN()},
		{Config: Config{H: 1}, K: 1, firstCheckpoint: 1},
	}
	for i, cfg := range bad {
		if _, err := Plan(g, store, pairs, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
	// k larger than the candidate set is fine (returns everything).
	res, err := Plan(g, store, pairs, PlanConfig{Config: Config{H: 1, SampleSize: 80, Seed: 2}, K: 10 * len(pairs)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != res.Stats.FullTests {
		t.Fatalf("oversized k: %d pairs returned, %d full tests", len(res.Pairs), res.Stats.FullTests)
	}
	// Empty candidate list is a no-op, not an error.
	empty, err := Plan(g, store, nil, PlanConfig{Config: Config{H: 1}, K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(empty.Pairs) != 0 || empty.Stats.Candidates != 0 {
		t.Fatalf("empty plan returned %+v", empty)
	}
}

func TestPlanDeterministic(t *testing.T) {
	g, store := fixture(t)
	cfg := PlanConfig{Config: Config{H: 1, SampleSize: 100, Seed: 42, Workers: 3, MinOccurrences: 5}, K: 5}
	a, err := Plan(g, store, AllPairs(store, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Plan(g, store, AllPairs(store, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	comparePlanned(t, a.Pairs, b.Pairs, "repeat")
	if a.Stats.FullTests != b.Stats.FullTests || a.Stats.PrunedEarly != b.Stats.PrunedEarly {
		// Worker interleaving may race the bar, so pruned counts could
		// in principle differ run to run — but with the same schedule
		// and a fixed seed they should not on this fixture. If this
		// ever flakes, the RESULT comparison above is the contract;
		// loosen this accounting check, not that one.
		t.Logf("work accounting differed: %+v vs %+v", a.Stats, b.Stats)
	}
}

func TestPlanProgressExactlyOncePerCandidate(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 1) // includes skipped (rare-event) pairs
	var mu sync.Mutex
	seen := make(map[int]int)
	_, err := Plan(g, store, pairs, PlanConfig{
		Config: Config{
			H: 1, SampleSize: 50, Workers: 8, Seed: 5, MinOccurrences: 5,
			Progress: func(done, total int) {
				if total != len(pairs) {
					t.Errorf("total = %d, want %d", total, len(pairs))
				}
				mu.Lock()
				seen[done]++
				mu.Unlock()
			},
		},
		K: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(pairs) {
		t.Fatalf("Progress delivered %d distinct counts, want %d", len(seen), len(pairs))
	}
	for done, n := range seen {
		if n != 1 || done < 1 || done > len(pairs) {
			t.Fatalf("completion count %d delivered %d times", done, n)
		}
	}
}

// TestPlanStream pins the streaming contract: snapshots are ranked,
// never exceed k, and the final snapshot equals the returned result.
func TestPlanStream(t *testing.T) {
	g, store := fixture(t)
	var mu sync.Mutex
	var snapshots [][]PairResult
	cfg := PlanConfig{
		Config: Config{H: 2, SampleSize: 120, Alternative: stats.Greater, Seed: 7, Workers: 4, MinOccurrences: 5},
		K:      3,
		Stream: func(top []PairResult) {
			mu.Lock()
			snapshots = append(snapshots, top)
			mu.Unlock()
		},
	}
	res, err := Plan(g, store, AllPairs(store, 5), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshots) == 0 {
		t.Fatal("no streamed snapshots")
	}
	for _, snap := range snapshots {
		if len(snap) > cfg.K {
			t.Fatalf("snapshot has %d pairs, k=%d", len(snap), cfg.K)
		}
		for i := 1; i < len(snap); i++ {
			if rankLess(&snap[i], &snap[i-1], cfg.Alternative) {
				t.Fatalf("snapshot not rank-ordered: %+v", snap)
			}
		}
	}
	last := snapshots[len(snapshots)-1]
	comparePlanned(t, last, res.Pairs, "final snapshot")
}

// TestPlanStreamSerialized pins "calls are serialized" under several
// workers: no two Stream calls overlap, and snapshots arrive in the
// order they were cut. With k = every pair each completed pair joins
// the visible set, so the i-th snapshot must hold exactly i pairs.
func TestPlanStreamSerialized(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	var inFlight atomic.Int32
	var lens []int // written only inside Stream, so serialization guards it
	cfg := PlanConfig{
		Config: Config{H: 1, SampleSize: 40, Alternative: stats.Greater, Seed: 3, Workers: 4, MinOccurrences: 5},
		K:      len(pairs),
		Stream: func(top []PairResult) {
			if inFlight.Add(1) != 1 {
				t.Error("two Stream calls overlap")
			}
			lens = append(lens, len(top))
			time.Sleep(200 * time.Microsecond) // widen the window a racing call would hit
			inFlight.Add(-1)
		},
	}
	res, err := Plan(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(lens) != res.Stats.FullTests {
		t.Fatalf("%d snapshots for %d completed pairs", len(lens), res.Stats.FullTests)
	}
	for i, n := range lens {
		if n != i+1 {
			t.Fatalf("snapshot %d holds %d pairs, want %d (snapshot sizes %v)", i, n, i+1, lens)
		}
	}
}

// TestPlanReportsSkipped: skipped candidates come back beside the
// ranking, in input order and with the reason a Run reports.
func TestPlanReportsSkipped(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 1)
	cfg := Config{H: 1, SampleSize: 40, Seed: 3, MinOccurrences: 5}
	res, err := Plan(g, store, pairs, PlanConfig{Config: cfg, K: len(pairs)})
	if err != nil {
		t.Fatal(err)
	}
	run, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var want []PairResult
	for _, p := range pairs {
		for _, r := range run.Pairs {
			if r.Skipped != "" && r.A == p[0] && r.B == p[1] {
				want = append(want, r)
			}
		}
	}
	if len(want) == 0 || res.Stats.Skipped != len(want) || len(res.Pairs)+len(want) != len(pairs) {
		t.Fatalf("plan: %d ranked, %d skipped (stats %d); run skipped %d of %d", len(res.Pairs), len(res.Skipped), res.Stats.Skipped, len(want), len(pairs))
	}
	comparePlanned(t, res.Skipped, want, "skipped")
}

func TestCheckpointSchedule(t *testing.T) {
	for _, statistical := range []bool{true, false} {
		if cps := checkpointSchedule(nil, 64, 64, statistical); cps != nil {
			t.Fatalf("statistical=%v: n <= first should yield no checkpoints, got %v", statistical, cps)
		}
		if cps := checkpointSchedule(nil, 64, 10, statistical); cps != nil {
			t.Fatalf("statistical=%v: tiny sample should yield no checkpoints, got %v", statistical, cps)
		}
		for _, n := range []int{65, 100, 129, 256, 900, 1000} {
			cps := checkpointSchedule(nil, 64, n, statistical)
			if !sort.IntsAreSorted(cps) {
				t.Fatalf("statistical=%v n=%d: schedule not sorted: %v", statistical, n, cps)
			}
			for i, m := range cps {
				if m < 64 || m >= n {
					t.Fatalf("statistical=%v n=%d: checkpoint %d out of [first, n): %v", statistical, n, m, cps)
				}
				if i > 0 && cps[i] == cps[i-1] {
					t.Fatalf("statistical=%v n=%d: duplicate checkpoint: %v", statistical, n, cps)
				}
			}
			// Both regimes start at first whenever it fits their range.
			last := n - 1
			if statistical {
				last = n / 2
			}
			if 64 <= last && (len(cps) == 0 || cps[0] != 64) {
				t.Fatalf("statistical=%v n=%d: first checkpoint missing: %v", statistical, n, cps)
			}
		}
	}
	// The deterministic bound sharpens late: its schedule keeps the
	// dense tail, 7n/8 included.
	det := checkpointSchedule(nil, 64, 900, false)
	if !slices.Contains(det, 900*7/8) {
		t.Fatalf("deterministic schedule: 7n/8=%d missing from %v", 900*7/8, det)
	}
	// The statistical bound prunes early or not at all: its schedule
	// stops at n/2.
	stat := checkpointSchedule(nil, 64, 900, true)
	if want := []int{64, 128, 256}; !slices.Equal(stat, want) {
		t.Fatalf("statistical schedule for n=900 = %v, want %v", stat, want)
	}
	for _, n := range []int{65, 100, 129, 256, 900, 1000} {
		if cps := checkpointSchedule(nil, 64, n, true); len(cps) > 0 && cps[len(cps)-1] > n/2 {
			t.Fatalf("statistical n=%d: checkpoint past n/2: %v", n, cps)
		}
	}
}

func TestScoreInterval(t *testing.T) {
	cases := []struct {
		alt      stats.Alternative
		lo, hi   float64
		sLo, sHi float64
	}{
		{stats.Greater, -0.5, 0.8, -0.5, 0.8},
		{stats.Less, -0.5, 0.8, -0.8, 0.5},
		{stats.TwoSided, -0.5, 0.8, 0, 0.8},    // straddles zero
		{stats.TwoSided, 0.2, 0.8, 0.2, 0.8},   // all positive
		{stats.TwoSided, -0.8, -0.2, 0.2, 0.8}, // all negative
		{stats.TwoSided, -0.9, 0.3, 0, 0.9},
	}
	for _, c := range cases {
		sLo, sHi := scoreInterval(c.alt, c.lo, c.hi)
		if sLo != c.sLo || sHi != c.sHi {
			t.Errorf("scoreInterval(%v, %g, %g) = (%g, %g), want (%g, %g)", c.alt, c.lo, c.hi, sLo, sHi, c.sLo, c.sHi)
		}
	}
}

func TestRankOrdering(t *testing.T) {
	a := PairResult{A: "a", B: "b", Tau: 0.5}
	b := PairResult{A: "a", B: "c", Tau: -0.7}
	if !rankLess(&a, &b, stats.Greater) {
		t.Error("Greater: τ=0.5 should outrank τ=-0.7")
	}
	if !rankLess(&b, &a, stats.Less) {
		t.Error("Less: τ=-0.7 should outrank τ=0.5")
	}
	if !rankLess(&b, &a, stats.TwoSided) {
		t.Error("TwoSided: |τ|=0.7 should outrank |τ|=0.5")
	}
	// Ties break on names, deterministically and irreflexively.
	c := PairResult{A: "a", B: "c", Tau: 0.5}
	if !rankLess(&a, &c, stats.Greater) || rankLess(&c, &a, stats.Greater) {
		t.Error("tie-break by names broken")
	}
	if rankLess(&a, &a, stats.Greater) {
		t.Error("rankLess not irreflexive")
	}
}

// TestPlanBarStrictness pins the bar semantics the soundness argument
// rests on: the bar is −Inf until k completions, equals the k-th best
// completed score after, and only ever rises; its streamed snapshot is
// the current top k (or everything at θ).
func TestPlanBarStrictness(t *testing.T) {
	var ranked []PairResult
	keep := func(top []PairResult) { ranked = top }
	b := &planBar{k: 2, alt: stats.Greater, stream: keep}
	if got := b.bar(); !math.IsInf(got, -1) {
		t.Fatalf("empty bar = %g, want -Inf", got)
	}
	b.offer(PairResult{A: "a", B: "b", Tau: 0.9})
	if got := b.bar(); !math.IsInf(got, -1) {
		t.Fatalf("bar with k-1 completions = %g, want -Inf", got)
	}
	b.offer(PairResult{A: "a", B: "c", Tau: 0.3})
	if got := b.bar(); got != 0.3 {
		t.Fatalf("bar = %g, want 0.3", got)
	}
	// A worse completion never raises the bar.
	b.offer(PairResult{A: "a", B: "d", Tau: 0.1})
	if got := b.bar(); got != 0.3 {
		t.Fatalf("bar moved on a worse completion: %g", got)
	}
	// A better one does.
	b.offer(PairResult{A: "a", B: "e", Tau: 0.7})
	if got := b.bar(); got != 0.7 {
		t.Fatalf("bar = %g, want 0.7", got)
	}
	if len(ranked) != 2 || ranked[0].Tau != 0.9 || ranked[1].Tau != 0.7 {
		t.Fatalf("ranked = %+v", ranked)
	}
	// Threshold mode: the bar is θ from the start.
	tb := &planBar{theta: 0.25, alt: stats.Greater, stream: keep}
	if got := tb.bar(); got != 0.25 {
		t.Fatalf("threshold bar = %g, want 0.25", got)
	}
	tb.offer(PairResult{A: "a", B: "b", Tau: 0.25}) // exactly at θ: stays
	tb.offer(PairResult{A: "a", B: "c", Tau: 0.2})  // below θ: cut
	if len(ranked) != 1 || ranked[0].Tau != 0.25 {
		t.Fatalf("threshold ranked = %+v, want exactly the at-θ pair", ranked)
	}
}

// TestCheckpointScoreBoundSound is the adversarial pruning property:
// over synthetic density prefixes the deterministic bound must always
// contain the final exact score, INCLUDING the boundary-exact cases
// where every remaining concordance term lands at +1 (the bound's
// upper edge is the truth). A pair whose bound touches the bar exactly
// must survive strict-< pruning.
func TestCheckpointScoreBoundSound(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 3))
	for trial := 0; trial < 300; trial++ {
		n := 16 + rng.IntN(120)
		m := 2 + rng.IntN(n-2)
		sa := make([]float64, n)
		sb := make([]float64, n)
		mode := trial % 3
		for i := range sa {
			switch mode {
			case 0: // random with heavy ties — the tie-heavy regime
				sa[i] = float64(rng.IntN(4))
				sb[i] = float64(rng.IntN(4))
			case 1: // adversarial: perfectly concordant tail after a mixed prefix
				if i < m {
					sa[i], sb[i] = rng.Float64(), rng.Float64()
				} else {
					sa[i], sb[i] = float64(i), float64(i)
				}
			default: // continuous random
				sa[i], sb[i] = rng.Float64(), rng.Float64()
			}
		}
		full := stats.KendallAuto(sa, sb)
		for _, alt := range []stats.Alternative{stats.Greater, stats.Less, stats.TwoSided} {
			score := rankScore(alt, full.Tau)
			prefix := stats.KendallAuto(sa[:m], sb[:m])
			// Deterministic-only bound: must contain the final score, always.
			sLo, sHi := checkpointScoreBound(alt, prefix, m, n, -1)
			if score < sLo-1e-12 || score > sHi+1e-12 {
				t.Fatalf("trial %d mode %d alt %v: final score %.17g outside deterministic bound [%.17g, %.17g] (m=%d n=%d)",
					trial, mode, alt, score, sLo, sHi, m, n)
			}
			// Strict-< pruning with the bar exactly at the upper bound
			// must NOT fire: scoreUB < scoreUB is false. (This is the
			// planner's pruning predicate verbatim.)
			if sHi < sHi {
				t.Fatal("unreachable: strict < fired at equality")
			}
		}
	}
}

// TestCheckpointScoreBoundExactEdge drives the bound with the
// boundary-exact prefix from the stats tests: a prefix whose every
// remaining term completes concordantly, so the final τ EQUALS the
// deterministic upper bound. A bar at that exact value must not prune
// the pair (strict <), and a bar one ulp above must.
func TestCheckpointScoreBoundExactEdge(t *testing.T) {
	// Prefix of 4 discordant-ish values, tail perfectly concordant:
	// every unobserved pair term is +1, final τ = deterministic hi.
	sa := []float64{1, 2, 3, 4, 10, 20, 30, 40}
	sb := []float64{4, 3, 2, 1, 10, 20, 30, 40}
	m, n := 4, len(sa)
	full := stats.KendallAuto(sa, sb)
	prefix := stats.KendallAuto(sa[:m], sb[:m])
	_, sHi := checkpointScoreBound(stats.Greater, prefix, m, n, -1)
	if full.Tau != sHi {
		t.Fatalf("edge case lost: final τ %.17g != deterministic hi %.17g", full.Tau, sHi)
	}
	bar := full.Tau
	if sHi < bar {
		t.Fatal("strict pruning fired with the true score exactly at the bar")
	}
	if !(sHi < math.Nextafter(bar, 2)) {
		t.Fatal("bar one ulp above the bound failed to prune")
	}
	// Intersecting with the statistical interval must never push the
	// upper bound below a reachable score when the intersection is kept.
	_, sHiStat := checkpointScoreBound(stats.Greater, prefix, m, n, 1e-6)
	if sHiStat > sHi {
		t.Fatalf("intersection widened the bound: %g > %g", sHiStat, sHi)
	}
}

// TestPlanPrunesWork: on the planted fixture with a clear winner and a
// deliberately weak bar requirement (k=1), the planner must do
// measurably less density work than the exhaustive sweep when the
// sample is large enough for checkpoints to exist.
func TestPlanPrunesWork(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	cfg := PlanConfig{
		Config: Config{H: 2, SampleSize: 400, Alternative: stats.Greater, Seed: 7, Workers: 1, NoMemo: true},
		K:      1,
	}
	res, err := Plan(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkPlanStats(t, res.Stats, "pruning")
	exhaustiveEvals := int64(0)
	for range pairs {
		exhaustiveEvals += int64(cfg.SampleSize)
	}
	if res.Stats.PrunedEarly == 0 {
		t.Fatalf("no pairs pruned on the planted fixture: %+v", res.Stats)
	}
	if res.Stats.DensityEvals >= exhaustiveEvals {
		t.Fatalf("planner paid %d density evals, exhaustive pays %d", res.Stats.DensityEvals, exhaustiveEvals)
	}
	t.Logf("planner: %d/%d full tests, %d pruned, %d/%d density evals",
		res.Stats.FullTests, len(pairs), res.Stats.PrunedEarly, res.Stats.DensityEvals, exhaustiveEvals)
}

// TestPlanWarmK32Accounting pins the warm top-10 plan's work on the
// K=32 benchmark substrate (seed 3, one worker), so a plan that stops
// pruning cannot pass for a faster one. Once the bar rises above 0,
// every pair past the 28 the prior order runs first has a vicinity
// overlap too small to reach it, so the prior prunes all 468 before
// their draw under either checkpoint bound, and each of the 28 pays its
// whole 900-reference sample.
func TestPlanWarmK32Accounting(t *testing.T) {
	cfg := k32PlanConfig
	cfg.Memo = warmK32Memo(t)
	for _, boundAlpha := range []float64{0, -1} {
		cfg.BoundAlpha = boundAlpha
		res, err := Plan(sweep100k.g, sweepK32.store, sweepK32.pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st := res.Stats
		checkPlanStats(t, st, fmt.Sprintf("warm k32, bound alpha %g", boundAlpha))
		if st.FullTests != 28 || st.PrunedPrior != 468 || st.PrunedEarly != 0 || st.DensityEvals != 28*900 {
			t.Fatalf("bound alpha %g: full %d prior %d early %d density evals %d, want 28, 468, 0, %d",
				boundAlpha, st.FullTests, st.PrunedPrior, st.PrunedEarly, st.DensityEvals, 28*900)
		}
		t.Logf("bound alpha %g: %d checkpoints", boundAlpha, st.Checkpoints)
	}
}

// TestAllPairsDeterministic is the regression test for the ordering
// fix: the candidate list is lexicographic regardless of insertion
// order, and repeated calls agree exactly.
func TestAllPairsDeterministic(t *testing.T) {
	b := events.NewBuilder(50)
	// Insert in deliberately non-lexicographic order.
	for _, name := range []string{"zeta", "alpha", "mid", "beta", "omega"} {
		for i := 0; i < 3; i++ {
			b.Add(name, graph.NodeID(i))
		}
	}
	store := b.Build()
	pairs := AllPairs(store, 1)
	if len(pairs) != 10 {
		t.Fatalf("pairs = %d, want 10", len(pairs))
	}
	for i, p := range pairs {
		if p[0] >= p[1] {
			t.Fatalf("pair %d not ordered: %v", i, p)
		}
		if i > 0 {
			prev := pairs[i-1]
			if !(prev[0] < p[0] || (prev[0] == p[0] && prev[1] < p[1])) {
				t.Fatalf("pair list not lexicographic at %d: %v after %v", i, p, prev)
			}
		}
	}
	again := AllPairs(store, 1)
	for i := range pairs {
		if pairs[i] != again[i] {
			t.Fatalf("AllPairs not deterministic at %d", i)
		}
	}
}
