package screen

import (
	"math/rand/v2"
	"testing"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
)

// TestSharedMemoInvalidateDuringPlan fires Invalidate into an
// in-flight planner run, at the serialization point the memo's
// contract allows (a single-worker run's Progress callback executes on
// the run's own goroutine, between pairs). Entries the run already
// published are ripped out mid-flight and must be re-evaluated; on an
// unchanged snapshot re-evaluation recomputes identical densities, so
// the planned result must stay bit-identical to the exhaustive oracle
// while the work accounting shows the re-evaluations actually happened.
func TestSharedMemoInvalidateDuringPlan(t *testing.T) {
	g, store := fixture(t)
	memo, err := NewSharedMemo(g.NumNodes(), store.Names())
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllPairs(store, 5)
	rng := rand.New(rand.NewPCG(17, 5))

	base := PlanConfig{
		Config: Config{H: 2, SampleSize: 150, Seed: 9, Workers: 1, MinOccurrences: 5, Memo: memo},
		K:      5,
	}
	// Warm the memo fully so the in-flight run starts with every entry
	// served from cache.
	if _, err := Plan(g, store, pairs, base); err != nil {
		t.Fatal(err)
	}
	published := memo.Published()
	if published == 0 {
		t.Fatal("warm-up published nothing")
	}
	warm, err := Plan(g, store, pairs, base)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Stats.BFSRuns != 0 {
		t.Fatalf("fully warm plan paid %d traversals", warm.Stats.BFSRuns)
	}

	want := planOracle(t, g, store, pairs, base)
	cfg := base
	var invalidated int
	cfg.Progress = func(done, total int) {
		// The mid-run invalidator: every few pairs, rip out a random
		// node batch — including entries this very run just published.
		if done%3 != 0 {
			return
		}
		batch := make([]graph.NodeID, 0, 64)
		for i := 0; i < 64; i++ {
			batch = append(batch, graph.NodeID(rng.IntN(g.NumNodes())))
		}
		invalidated += memo.Invalidate(batch)
	}
	res, err := Plan(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if invalidated == 0 {
		t.Fatal("the invalidator never hit a published entry")
	}
	if res.Stats.BFSRuns == 0 {
		t.Fatal("stale entries were not re-evaluated (no traversals paid)")
	}
	if len(res.Pairs) != len(want) {
		t.Fatalf("%d pairs, want %d", len(res.Pairs), len(want))
	}
	for i := range want {
		if res.Pairs[i] != want[i] {
			t.Fatalf("rank %d: mid-run invalidation changed the result\n got %+v\nwant %+v",
				i, res.Pairs[i], want[i])
		}
	}
}

// TestSharedMemoPlanAcrossMutations is the planner's version of
// TestSharedMemoEntriesMatchFresh: across seeded edge-mutation batches
// with dirty-set invalidation, a planned top-k over the persistent
// memo must equal a fresh-memo exhaustive oracle on every snapshot.
func TestSharedMemoPlanAcrossMutations(t *testing.T) {
	rng := rand.New(rand.NewPCG(33, 9))
	g := graphgen.WattsStrogatz(400, 3, 0.1, rng)
	b := events.NewBuilder(g.NumNodes())
	names := []string{"ev-a", "ev-b", "ev-c", "ev-d"}
	for _, name := range names {
		for i := 0; i < 25; i++ {
			b.Add(name, graph.NodeID(rng.IntN(g.NumNodes())))
		}
	}
	store := b.Build()
	const h = 2
	memo, err := NewSharedMemo(g.NumNodes(), names)
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllPairs(store, 1)
	stream := graphgen.NewFlipStream(g, 0.5, rng)
	for batch := 0; batch < 15; batch++ {
		cfg := PlanConfig{
			Config: Config{H: h, SampleSize: 80, Seed: 5, Workers: 1, Memo: memo},
			K:      3,
		}
		res, err := Plan(g, store, pairs, cfg)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		fresh := cfg
		fresh.Memo = nil
		fresh.NoMemo = true
		want := planOracle(t, g, store, pairs, fresh)
		if len(res.Pairs) != len(want) {
			t.Fatalf("batch %d: %d pairs, want %d", batch, len(res.Pairs), len(want))
		}
		for i := range want {
			if res.Pairs[i] != want[i] {
				t.Fatalf("batch %d rank %d: memoized plan diverged from fresh oracle\n got %+v\nwant %+v",
					batch, i, res.Pairs[i], want[i])
			}
		}
		// Mutate, invalidate via the locality dirty set, advance.
		changes := stream.Take(1 + rng.IntN(4))
		d := graph.NewDelta(g)
		applied, err := d.Apply(changes)
		if err != nil {
			t.Fatal(err)
		}
		newG := d.Compact()
		dirty, err := vicinity.DirtySet(g, newG, applied, h, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		memo.Invalidate(dirty)
		g = newG
	}
}

// TestSharedMemoValidation pins the bind-time contract: vocabulary and
// universe mismatches fail loudly instead of serving garbage.
func TestSharedMemoValidation(t *testing.T) {
	g, store := fixture(t)
	if _, err := NewSharedMemo(g.NumNodes(), nil); err == nil {
		t.Fatal("empty vocabulary accepted")
	}
	if _, err := NewSharedMemo(g.NumNodes(), []string{"x", "x"}); err == nil {
		t.Fatal("duplicate vocabulary accepted")
	}
	memo, err := NewSharedMemo(g.NumNodes(), []string{"signal-b", "signal-a"})
	if err != nil {
		t.Fatal(err)
	}
	if got := memo.Names(); got[0] != "signal-a" || got[1] != "signal-b" {
		t.Fatalf("vocabulary not sorted: %v", got)
	}
	pairs := [][2]string{{"signal-a", "signal-b"}}
	// Wrong universe.
	smallG := graphgen.WattsStrogatz(10, 2, 0, rand.New(rand.NewPCG(1, 1)))
	smallB := events.NewBuilder(10)
	smallB.Add("signal-a", 0)
	smallB.Add("signal-b", 1)
	if _, err := Run(smallG, smallB.Build(), pairs, Config{H: 1, SampleSize: 5, Memo: memo}); err == nil {
		t.Fatal("universe mismatch accepted")
	}
	// Event outside the vocabulary.
	if _, err := Run(g, store, [][2]string{{"signal-a", "noise-a"}}, Config{H: 1, SampleSize: 5, Memo: memo}); err == nil {
		t.Fatal("foreign event accepted")
	}
}

// TestSharedMemoReuseAcrossRuns: a second identical run over a
// SharedMemo reuses every density evaluation (MemoHits == sample
// size), stays bit-identical, and per-run MemoHits accounting does not
// leak across runs.
func TestSharedMemoReuseAcrossRuns(t *testing.T) {
	g, store := fixture(t)
	memo, err := NewSharedMemo(g.NumNodes(), []string{"signal-a", "signal-b"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{{"signal-a", "signal-b"}}
	cfg := Config{H: 2, SampleSize: 120, Seed: 11, Memo: memo}

	cold, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.MemoHits != 0 {
		t.Fatalf("cold run reported %d memo hits", cold.MemoHits)
	}
	if cold.BFSRuns == 0 {
		t.Fatal("cold run paid no traversals")
	}
	warm, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.BFSRuns != 0 {
		t.Fatalf("warm run paid %d traversals, want 0 (full reuse)", warm.BFSRuns)
	}
	if warm.MemoHits != cold.BFSRuns {
		t.Fatalf("warm run reused %d evaluations, want %d", warm.MemoHits, cold.BFSRuns)
	}
	if warm.Pairs[0] != cold.Pairs[0] {
		t.Fatalf("warm result diverged:\n cold %+v\n warm %+v", cold.Pairs[0], warm.Pairs[0])
	}
	// Invalidate everything: the next run is cold again.
	memo.Reset()
	cold2, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold2.MemoHits != 0 || cold2.BFSRuns != cold.BFSRuns {
		t.Fatalf("post-reset run: hits=%d bfs=%d, want 0/%d", cold2.MemoHits, cold2.BFSRuns, cold.BFSRuns)
	}
}

// TestSharedMemoEntriesMatchFresh is the per-node density half of the
// differential acceptance criterion: across seeded edge-mutation
// batches with dirty-set invalidation, every published cache entry
// (count vector and vicinity size) equals a fresh evaluation on the
// current graph — not just the aggregated statistics.
func TestSharedMemoEntriesMatchFresh(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 7))
	g := graphgen.WattsStrogatz(300, 2, 0.1, rng)
	b := events.NewBuilder(g.NumNodes())
	for i := 0; i < 30; i++ {
		b.Add("pair-a", graph.NodeID(rng.IntN(g.NumNodes())))
		b.Add("pair-b", graph.NodeID(rng.IntN(g.NumNodes())))
	}
	store := b.Build()
	const h = 2
	memo, err := NewSharedMemo(g.NumNodes(), []string{"pair-a", "pair-b"})
	if err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{{"pair-a", "pair-b"}}
	stream := graphgen.NewFlipStream(g, 0.5, rng)
	for batch := 0; batch < 40; batch++ {
		if _, err := Run(g, store, pairs, Config{H: h, SampleSize: 60, Seed: 5, Memo: memo}); err != nil {
			t.Fatal(err)
		}
		// Verify every published entry against a fresh evaluator.
		sets := []*graph.NodeSet{store.Set("pair-a"), store.Set("pair-b")}
		mem, err := core.NewEventMembership(g.NumNodes(), sets)
		if err != nil {
			t.Fatal(err)
		}
		multi, err := core.NewMultiEvaluator(g, mem, h, nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh := make([]int32, 2)
		for v := 0; v < g.NumNodes(); v++ {
			st := memo.memo.states[v].Load()
			if st != 2 {
				continue
			}
			size := multi.Eval(graph.NodeID(v), fresh)
			lo := int64(v) * 2
			if memo.memo.sizes[v] != int32(size) ||
				memo.memo.counts[lo] != fresh[0] || memo.memo.counts[lo+1] != fresh[1] {
				t.Fatalf("batch %d node %d: cached (size=%d counts=%v) != fresh (size=%d counts=%v)",
					batch, v, memo.memo.sizes[v], memo.memo.counts[lo:lo+2], size, fresh)
			}
		}
		// Mutate and invalidate via the locality dirty set.
		changes := stream.Take(1 + rng.IntN(4))
		d := graph.NewDelta(g)
		applied, err := d.Apply(changes)
		if err != nil {
			t.Fatal(err)
		}
		newG := d.Compact()
		dirty, err := vicinity.DirtySet(g, newG, applied, h, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		memo.Invalidate(dirty)
		g = newG
	}
}
