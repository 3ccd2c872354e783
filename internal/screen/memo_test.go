package screen

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
)

// Published returns the number of cached (published) entries — the
// reference nodes whose next evaluation is an array load instead of a
// BFS. O(|V|).
func (m *SharedMemo) Published() int {
	n := 0
	for i := range m.memo.states {
		if m.memo.states[i].Load() == 2 {
			n++
		}
	}
	return n
}

// memoFixture builds a seeded graph and a K-event store whose h-hop
// reference populations overlap heavily, so the cross-pair memo gets
// real hits.
func memoFixture(t *testing.T, k, occ int, seed uint64) (*graph.Graph, *events.Store) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x51))
	const n = 600
	b := graph.NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eb := events.NewBuilder(n)
	for e := 0; e < k; e++ {
		for i := 0; i < occ; i++ {
			eb.Add(fmt.Sprintf("ev-%d", e), graph.NodeID(rng.IntN(n)))
		}
	}
	return g, eb.Build()
}

// TestMemoBitIdentical is the sweep-level differential test: screening
// with and without the cross-pair density memo produces reports
// bit-identical to the reference sweep at h = 1..3, while the memo
// actually deduplicates traversals. Subtest names keep their
// directed=false prefix so their IDs stay stable for tools that track
// them.
func TestMemoBitIdentical(t *testing.T) {
	for h := 1; h <= 3; h++ {
		t.Run(fmt.Sprintf("directed=false/h=%d", h), func(t *testing.T) {
			g, store := memoFixture(t, 5, 25, uint64(h)*17+1)
			cfg := Config{H: h, SampleSize: 200, Seed: 42, Workers: 4}
			pairs := AllPairs(store, 1)

			memoRes, err := Run(g, store, pairs, cfg)
			if err != nil {
				t.Fatal(err)
			}
			noMemoCfg := cfg
			noMemoCfg.NoMemo = true
			refRes, err := Run(g, store, pairs, noMemoCfg)
			if err != nil {
				t.Fatal(err)
			}

			raw, refBFS := referenceSweep(t, g, store, pairs, cfg)
			want := referenceRun(raw, cfg)
			sameRun(t, "memo", memoRes, want)
			sameRun(t, "no memo", refRes, want)
			if refRes.MemoHits != 0 {
				t.Fatalf("memo-less sweep reported %d memo hits", refRes.MemoHits)
			}
			if refRes.BFSRuns != refBFS {
				t.Fatalf("memo-less sweep paid %d traversals, reference %d", refRes.BFSRuns, refBFS)
			}
			if memoRes.MemoHits == 0 {
				t.Fatal("memo path reported zero hits on an overlapping workload")
			}
			if memoRes.BFSRuns >= refRes.BFSRuns {
				t.Fatalf("memo did not reduce traversals: %d vs %d", memoRes.BFSRuns, refRes.BFSRuns)
			}
			if memoRes.BFSRuns+memoRes.MemoHits < refRes.BFSRuns {
				t.Fatalf("runs+hits %d < reference evaluations %d: evaluations lost",
					memoRes.BFSRuns+memoRes.MemoHits, refRes.BFSRuns)
			}
		})
	}
}

// TestMemoWithEnginePool pins that lending pooled BFS engines to the
// sweep changes nothing in the report.
func TestMemoWithEnginePool(t *testing.T) {
	g, store := memoFixture(t, 4, 30, 7)
	pairs := AllPairs(store, 1)
	cfg := Config{H: 2, SampleSize: 150, Seed: 9, Workers: 3}
	plain, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = graph.NewEnginePool(g)
	pooled, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := referenceSweep(t, g, store, pairs, cfg)
	want := referenceRun(raw, cfg)
	sameRun(t, "plain", plain, want)
	sameRun(t, "pooled", pooled, want)
}

// TestSharedMemoPopulationLifetime pins the population cache's key: one
// SharedMemo lives through an edge delta (new graph), an event mutation
// (new store) and a change of h, each followed by Run and Plan. Every
// result equals the same screen on a fresh memo, every cached
// population equals a fresh Collect, the footprint counts them all,
// and each step changes some pair's population — so a cache that
// ignored any part of its (graph, store, h) key would serve a stale
// one.
func TestSharedMemoPopulationLifetime(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 3))
	g := graphgen.WattsStrogatz(400, 2, 0.1, rng)
	names := []string{"ev-a", "ev-b", "ev-c", "ev-d"}
	b := events.NewBuilder(g.NumNodes())
	for _, name := range names {
		for range 15 {
			b.Add(name, graph.NodeID(rng.IntN(g.NumNodes())))
		}
	}
	store := b.Build()
	pairs := AllPairs(store, 1)
	h := 2
	newMemo := func() *SharedMemo {
		m, err := NewSharedMemo(g.NumNodes(), names)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	memo := newMemo()

	screen := func(m *SharedMemo) (Result, PlanResult) {
		cfg := Config{H: h, SampleSize: 60, Seed: 8, Workers: 2, Memo: m}
		run, err := Run(g, store, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := Plan(g, store, pairs, PlanConfig{Config: cfg, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return run, plan
	}
	var before map[[2]string][]graph.NodeID
	check := func(step string) {
		t.Helper()
		gotRun, gotPlan := screen(memo)
		wantRun, wantPlan := screen(newMemo())
		sameRun(t, step+": Run", gotRun, wantRun)
		comparePlanned(t, gotPlan.Pairs, wantPlan.Pairs, step+": Plan")

		now := make(map[[2]string][]graph.NodeID)
		changed := false
		var bytes int64
		for _, pair := range pairs {
			pop, ok := memo.population(g, store, h, pair)
			if !ok {
				t.Fatalf("%s: no population cached for %v", step, pair)
			}
			p, err := core.NewProblem(g, store.Set(pair[0]), store.Set(pair[1]))
			if err != nil {
				t.Fatal(err)
			}
			if want := graph.NewBFS(g).Collect(p.EventNodes(), h); !slices.Equal(pop, want) {
				t.Fatalf("%s: cached population of %v differs from a fresh Collect", step, pair)
			}
			changed = changed || (before != nil && !slices.Equal(pop, before[pair]))
			now[pair] = pop
			bytes += int64(len(pop)) * 4
		}
		if before != nil && !changed {
			t.Fatalf("%s changed no pair's population; the step proves nothing", step)
		}
		if memo.popBytes != bytes {
			t.Fatalf("%s: population footprint %d, want %d", step, memo.popBytes, bytes)
		}
		before = now
	}
	check("initial")

	// A new *Graph: edge flips, dirty-set invalidation.
	d := graph.NewDelta(g)
	applied, err := d.Apply(graphgen.NewFlipStream(g, 0.5, rng).Take(20))
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
	check("edge delta")

	// A new store: five occurrences of ev-a move. On an undirected
	// graph the reverse h-ball of the moved nodes is their h-ball.
	eb := events.BuilderFromStore(store)
	moved := slices.Clone(store.Occurrences("ev-a")[:5])
	for _, v := range moved {
		eb.Remove("ev-a", v)
	}
	for range 5 {
		v := graph.NodeID(rng.IntN(g.NumNodes()))
		eb.Add("ev-a", v)
		moved = append(moved, v)
	}
	store = eb.Build()
	memo.Invalidate(graph.NewBFS(g).Collect(moved, h))
	check("event mutation")

	// Another h: every density changes.
	h = 1
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}
	memo.Invalidate(all)
	check("h change")
}
