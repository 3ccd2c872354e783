package tesc

import (
	"math/rand/v2"
	"testing"
)

func TestScreenFacade(t *testing.T) {
	g := RandomCommunityGraph(25, 30, 8, 0.5, 46)
	rng := rand.New(rand.NewPCG(47, 1))

	ev := EventSet{}
	// planted attracting pair in shared communities
	var sa, sb []int
	for c := 0; c < 10; c++ {
		base := c * 30
		for i := 0; i < 5; i++ {
			sa = append(sa, base+rng.IntN(30))
			sb = append(sb, base+rng.IntN(30))
		}
	}
	ev["signal-a"] = sa
	ev["signal-b"] = sb
	for e := 0; e < 4; e++ {
		var occ []int
		for i := 0; i < 40; i++ {
			occ = append(occ, rng.IntN(g.NumNodes()))
		}
		ev["noise-"+string(rune('a'+e))] = occ
	}

	res, err := Screen(g, ev, ScreenOptions{
		H:          2,
		SampleSize: 200,
		Tail:       PositiveTail,
		Workers:    3,
		Seed:       5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tested != 15 { // 6 events → 15 pairs
		t.Fatalf("tested = %d, want 15", res.Tested)
	}
	top := res.Pairs[0]
	if top.A != "signal-a" || top.B != "signal-b" || !top.Significant {
		t.Errorf("top pair = %+v, want the planted signal", top)
	}

	// Bonferroni is at least as conservative
	bonf, err := Screen(g, ev, ScreenOptions{
		H: 2, SampleSize: 200, Tail: PositiveTail, Seed: 5, Bonferroni: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if bonf.Rejected > res.Rejected {
		t.Errorf("Bonferroni rejected more (%d) than FDR (%d)", bonf.Rejected, res.Rejected)
	}

	// invalid H propagates
	if _, err := Screen(g, ev, ScreenOptions{H: 0}); err == nil {
		t.Error("H=0 accepted")
	}
	// An out-of-range alpha or sample size is an error from both
	// entry points, not a sweep with every pair skipped.
	for _, bad := range []ScreenOptions{
		{H: 1, Alpha: 1.5},
		{H: 1, Alpha: -0.05},
		{H: 1, SampleSize: 1},
	} {
		if res, err := Screen(g, ev, bad); err == nil {
			t.Errorf("Screen accepted %+v: %d tested, %d skipped", bad, res.Tested, res.Skipped)
		}
		if _, err := ScreenTopK(g, ev, ScreenTopKOptions{ScreenOptions: bad, K: 2}); err == nil {
			t.Errorf("ScreenTopK accepted %+v", bad)
		}
	}
}

func TestScreenTopKFacade(t *testing.T) {
	g := RandomCommunityGraph(25, 30, 8, 0.5, 46)
	rng := rand.New(rand.NewPCG(47, 1))

	ev := EventSet{}
	var sa, sb []int
	for c := 0; c < 10; c++ {
		base := c * 30
		for i := 0; i < 5; i++ {
			sa = append(sa, base+rng.IntN(30))
			sb = append(sb, base+rng.IntN(30))
		}
	}
	ev["signal-a"] = sa
	ev["signal-b"] = sb
	for e := 0; e < 4; e++ {
		var occ []int
		for i := 0; i < 40; i++ {
			occ = append(occ, rng.IntN(g.NumNodes()))
		}
		ev["noise-"+string(rune('a'+e))] = occ
	}

	base := ScreenOptions{H: 2, SampleSize: 200, Tail: PositiveTail, Workers: 3, Seed: 5}
	var streamed int
	res, err := ScreenTopK(g, ev, ScreenTopKOptions{
		ScreenOptions: base,
		K:             2,
		Stream:        func(top []ScreenedPair) { streamed++ },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Pairs) != 2 {
		t.Fatalf("k=2 returned %d pairs", len(res.Pairs))
	}
	top := res.Pairs[0]
	if top.A != "signal-a" || top.B != "signal-b" {
		t.Errorf("top pair = %+v, want the planted signal", top)
	}
	if top.AdjP != top.P {
		t.Errorf("planned results must carry raw p-values: %+v", top)
	}
	if streamed == 0 {
		t.Error("Stream never called")
	}
	if res.Candidates != 15 {
		t.Errorf("candidates = %d, want 15", res.Candidates)
	}
	if res.Skipped+res.PrunedPrior+res.PrunedEarly+res.FullTests != res.Candidates {
		t.Errorf("planner accounting does not partition candidates: %+v", res)
	}

	// The planner's top pair matches the exhaustive facade's (ranked by
	// τ here, by adjusted p there — the planted pair wins both ways).
	exhaustive, err := Screen(g, ev, base)
	if err != nil {
		t.Fatal(err)
	}
	if top.A != exhaustive.Pairs[0].A || top.B != exhaustive.Pairs[0].B || top.Tau != exhaustive.Pairs[0].Tau {
		t.Errorf("planner top %+v != exhaustive top %+v", top, exhaustive.Pairs[0])
	}

	// Threshold mode returns every pair at θ.
	th, err := ScreenTopK(g, ev, ScreenTopKOptions{ScreenOptions: base, Theta: top.Tau})
	if err != nil {
		t.Fatal(err)
	}
	if len(th.Pairs) == 0 || th.Pairs[0].Tau < top.Tau {
		t.Errorf("threshold at the top score lost the top pair: %+v", th.Pairs)
	}

	// Mode exclusivity propagates.
	if _, err := ScreenTopK(g, ev, ScreenTopKOptions{ScreenOptions: base, K: 2, Theta: 0.5}); err == nil {
		t.Error("k>0 with θ accepted")
	}
}
