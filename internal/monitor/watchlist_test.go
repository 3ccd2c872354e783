package monitor

import (
	"fmt"
	"math/rand/v2"
	"strings"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/screen"
	"tesc/internal/stats"
)

// seedVocab plants a K-event vocabulary: each event's occurrences are
// drawn near its own anchor node, except the first two events which
// share an anchor — the planted attracting pair a watchlist should
// surface at rank 1.
func seedVocab(w *world, rng *rand.Rand, names []string, occurrences int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.g.NumNodes()
	for i, name := range names {
		anchor := rng.IntN(n)
		if i == 1 {
			anchor = int(w.builder.Build().Occurrences(names[0])[0]) // co-locate with event 0
		}
		for k := 0; k < occurrences; k++ {
			w.builder.Add(name, graph.NodeID((anchor+rng.IntN(24))%n))
		}
	}
	w.store = w.builder.Build()
	w.epoch++
}

// watchOracle runs the exact planned ranking the watchlist runs, with
// no retained state: a fresh screen.Plan at the same epoch, same seed,
// same parameters.
func watchOracle(t *testing.T, w *world, def Definition) []screen.PairResult {
	t.Helper()
	pairs := screen.AllPairs(w.store, def.MinOccurrences)
	res, err := screen.Plan(w.g, w.store, pairs, screen.PlanConfig{
		Config: screen.Config{
			H:              def.H,
			SampleSize:     def.SampleSize,
			Alpha:          def.Alpha,
			Alternative:    def.Alternative,
			MinOccurrences: def.MinOccurrences,
			Seed:           def.Seed,
			Workers:        1,
		},
		K: def.TopK,
	})
	if err != nil {
		t.Fatalf("from-scratch plan: %v", err)
	}
	return res.Pairs
}

func assertTopEquals(t *testing.T, ctx string, got []TopPair, want []screen.PairResult) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: watchlist ranked %d pairs, from-scratch %d", ctx, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		// Bit-identical float comparison: the incremental ranking must
		// be the same computation, not an approximation of it.
		if g.A != w.A || g.B != w.B || g.Tau != w.Tau || g.Z != w.Z || g.P != w.P || g.Significant != w.Significant {
			t.Fatalf("%s: rank %d diverged:\n got  %+v\n want {%s %s tau=%v z=%v p=%v sig=%v}",
				ctx, i, g, w.A, w.B, w.Tau, w.Z, w.P, w.Significant)
		}
	}
}

func TestWatchlistDefinitionValidation(t *testing.T) {
	base := Definition{TopK: 3, H: 2}
	d := base
	if err := d.Normalize(); err != nil {
		t.Fatalf("valid watchlist rejected: %v", err)
	}
	if d.MinOccurrences != 1 {
		t.Errorf("min occurrences default = %d, want 1", d.MinOccurrences)
	}
	cases := []struct {
		name string
		mut  func(*Definition)
	}{
		{"topk with pair", func(d *Definition) { d.A = "x" }},
		{"negative topk", func(d *Definition) { d.TopK = -1 }},
		{"negative min occurrences", func(d *Definition) { d.MinOccurrences = -2 }},
	}
	for _, c := range cases {
		d := base
		c.mut(&d)
		if err := d.Normalize(); err == nil {
			t.Errorf("%s: accepted %+v", c.name, d)
		}
	}
	// MinOccurrences is watchlist-only; a fixed pair must reject it.
	d = Definition{A: "a", B: "b", H: 1, MinOccurrences: 2}
	if err := d.Normalize(); err == nil {
		t.Error("fixed-pair definition accepted min occurrences")
	}
}

// TestWatchlistBaseline registers a watchlist against a seeded world
// and checks the registration-time ranking: identical to a
// from-scratch plan, led by the planted co-located pair, with the
// sample head mirroring rank 1.
func TestWatchlistBaseline(t *testing.T) {
	rng := rand.New(rand.NewPCG(501, 2))
	mgr := NewManager()
	w := newWorld("g", mgr, diffGraph(rng))
	seedVocab(w, rng, []string{"ev-a", "ev-b", "ev-c", "ev-d", "ev-e"}, 30)

	def := Definition{
		TopK:        3,
		H:           2,
		SampleSize:  80,
		Alternative: stats.Greater,
		Seed:        0xabc,
		Mode:        Manual,
	}
	m, err := mgr.Create(w.name, def, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	def = m.Def()
	s := mustLast(t, m)
	if len(s.Top) != 3 {
		t.Fatalf("baseline ranked %d pairs, want 3", len(s.Top))
	}
	assertTopEquals(t, "baseline", s.Top, watchOracle(t, w, def))
	lead := s.Top[0]
	if lead.A != "ev-a" || lead.B != "ev-b" {
		t.Errorf("rank 1 = %s/%s, want the planted ev-a/ev-b", lead.A, lead.B)
	}
	if s.Tau != lead.Tau || s.Z != lead.Z || s.P != lead.P || s.AdjP != lead.P || s.Significant != lead.Significant {
		t.Errorf("sample head %+v does not mirror rank 1 %+v", s, lead)
	}
}

// TestWatchlistDifferentialRerank is the watchlist counterpart of
// TestDifferentialIncrementalRescreen: across seeded mutation batches —
// edge flips, occurrence churn on watched events, and whole-event
// additions that change the vocabulary itself — every incremental
// re-ranking is bit-identical to a from-scratch planned screen at the
// same epoch.
func TestWatchlistDifferentialRerank(t *testing.T) {
	rng := rand.New(rand.NewPCG(502, 7))
	mgr := NewManager()
	w := newWorld("g", mgr, diffGraph(rng))
	names := []string{"ev-a", "ev-b", "ev-c", "ev-d"}
	seedVocab(w, rng, names, 25)

	def := Definition{
		TopK:        2,
		H:           2,
		SampleSize:  60,
		Alternative: stats.Greater,
		Seed:        0x5eed,
		Mode:        Manual,
	}
	m, err := mgr.Create(w.name, def, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	def = m.Def()
	assertTopEquals(t, "baseline", mustLast(t, m).Top, watchOracle(t, w, def))

	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	var reused int64
	for batch := 0; batch < 80; batch++ {
		switch {
		case batch == 30 || batch == 55:
			// Vocabulary growth: a brand-new event enters mid-run and
			// must be ranked from its first refresh on.
			name := fmt.Sprintf("ev-new-%d", batch)
			names = append(names, name)
			for i := 0; i < 25; i++ {
				w.mutateEvent(t, name, graph.NodeID(rng.IntN(w.g.NumNodes())), true)
			}
		case rng.IntN(4) == 0:
			name := names[rng.IntN(len(names))]
			occ := w.store.Occurrences(name)
			if rng.IntN(2) == 0 && len(occ) > 3 {
				w.mutateEvent(t, name, occ[rng.IntN(len(occ))], false)
			} else {
				w.mutateEvent(t, name, graph.NodeID(rng.IntN(w.g.NumNodes())), true)
			}
		default:
			w.applyEdges(t, stream.Take(1+rng.IntN(3)))
		}
		sample, ran, err := m.Refresh(false)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if !ran {
			t.Fatalf("batch %d: refresh did not run despite a pending delta", batch)
		}
		if sample.Epoch != w.epoch {
			t.Fatalf("batch %d: sample bound to epoch %d, world at %d", batch, sample.Epoch, w.epoch)
		}
		assertTopEquals(t, fmt.Sprintf("batch %d (epoch %d)", batch, w.epoch), sample.Top, watchOracle(t, w, def))
		reused += sample.Reused
	}
	if reused == 0 {
		t.Error("no density evaluations were ever reused; the incremental ranking never engaged")
	}
}

// TestWatchlistEventDeltaFanout: a watchlist is affected by EVERY
// event mutation, including events no fixed-pair monitor watches.
func TestWatchlistEventDeltaFanout(t *testing.T) {
	rng := rand.New(rand.NewPCG(503, 1))
	mgr := NewManager()
	w := newWorld("g", mgr, diffGraph(rng))
	seedVocab(w, rng, []string{"ev-a", "ev-b", "ev-c"}, 20)

	fixed, err := mgr.Create(w.name, Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 40, Mode: Manual, Seed: 1}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	watch, err := mgr.Create(w.name, Definition{TopK: 1, H: 1, SampleSize: 40, Mode: Manual, Seed: 2}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	// ev-c touches neither side of the fixed pair.
	w.mutateEvent(t, "ev-c", graph.NodeID(rng.IntN(w.g.NumNodes())), true)
	if got := fixed.Pending(); got != 0 {
		t.Errorf("fixed-pair monitor queued %d batches for an unrelated event", got)
	}
	if got := watch.Pending(); got != 1 {
		t.Errorf("watchlist queued %d batches, want 1", got)
	}
	sample, ran, err := watch.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("watchlist refresh: ran=%v err=%v", ran, err)
	}
	assertTopEquals(t, "post-delta", sample.Top, watchOracle(t, w, watch.Def()))
}

// TestWatchlistEmptyVocabulary: a watchlist may be registered before
// any events exist; the baseline records a skip and the first events
// bring a real ranking.
func TestWatchlistEmptyVocabulary(t *testing.T) {
	rng := rand.New(rand.NewPCG(504, 9))
	mgr := NewManager()
	w := newWorld("g", mgr, diffGraph(rng))

	m, err := mgr.Create(w.name, Definition{TopK: 2, H: 1, SampleSize: 40, Mode: Manual, Seed: 3}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	s := mustLast(t, m)
	if s.Skipped == "" || len(s.Top) != 0 {
		t.Fatalf("empty-vocabulary baseline should skip, got %+v", s)
	}
	for i := 0; i < 20; i++ {
		w.mutateEvent(t, "ev-a", graph.NodeID(rng.IntN(w.g.NumNodes())), true)
		w.mutateEvent(t, "ev-b", graph.NodeID(rng.IntN(w.g.NumNodes())), true)
	}
	sample, ran, err := m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("refresh after first events: ran=%v err=%v", ran, err)
	}
	if len(sample.Top) != 1 {
		t.Fatalf("two events rank %d pairs, want 1: %+v", len(sample.Top), sample.Top)
	}
	assertTopEquals(t, "first ranking", sample.Top, watchOracle(t, w, m.Def()))
	if !strings.Contains(sample.Top[0].A+sample.Top[0].B, "ev-a") {
		t.Errorf("unexpected ranked pair %+v", sample.Top[0])
	}
}
