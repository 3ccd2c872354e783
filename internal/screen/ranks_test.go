package screen

import (
	"cmp"
	"math/rand/v2"
	"slices"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
)

// checkRankTable verifies the memo's rank table against its densities:
// every built column ranks exactly the slotted nodes, each column's
// ranks are dense ranks in density order (ties share one), and Bytes
// counts the table exactly.
func checkRankTable(t *testing.T, step string, m *SharedMemo) {
	t.Helper()
	tab := m.ranks.Load()
	if tab == nil {
		t.Fatalf("%s: no rank table", step)
	}
	d := m.memo
	var nodes []graph.NodeID
	for v, s := range tab.slot {
		if s >= 0 {
			if int(s) != len(nodes) || d.states[v].Load() != 2 {
				t.Fatalf("%s: node %d has slot %d but %d nodes precede it (state %d)", step, v, s, len(nodes), d.states[v].Load())
			}
			nodes = append(nodes, graph.NodeID(v))
		}
	}
	bytes := int64(len(tab.slot)) * 4
	for e, col := range tab.cols {
		if !col.built() {
			continue
		}
		if len(col.r16) != len(nodes) || col.r32 != nil {
			t.Fatalf("%s: event %d has %d uint16 and %d uint32 ranks for %d slots", step, e, len(col.r16), len(col.r32), len(nodes))
		}
		bytes += int64(len(nodes)) * 2
		density := func(r graph.NodeID) float64 {
			return float64(d.counts[int(r)*d.k+e]) / float64(d.sizes[r])
		}
		byDensity := slices.SortedFunc(slices.Values(nodes), func(a, b graph.NodeID) int {
			return cmp.Compare(density(a), density(b))
		})
		for i, r := range byDensity {
			rank := col.key(tab.slot[r])
			switch {
			case i == 0:
				if rank > 1 {
					t.Fatalf("%s: event %d: lowest density %g has rank %d", step, e, density(r), rank)
				}
			case density(r) == density(byDensity[i-1]):
				if rank != col.key(tab.slot[byDensity[i-1]]) {
					t.Fatalf("%s: event %d: tied densities %g have ranks %d and %d", step, e, density(r), rank, col.key(tab.slot[byDensity[i-1]]))
				}
			default:
				if prev := col.key(tab.slot[byDensity[i-1]]); rank != prev+1 {
					t.Fatalf("%s: event %d: density %g ranks %d after %d", step, e, density(r), rank, prev)
				}
			}
		}
	}
	if tab.bytes != bytes {
		t.Fatalf("%s: table footprint %d, want %d", step, tab.bytes, bytes)
	}
	m.memMu.Lock()
	want := denseBytes(len(d.states), d.k) + m.memBytes + m.popBytes + bytes
	m.memMu.Unlock()
	if got := m.Bytes(); got != want {
		t.Fatalf("%s: Bytes %d, want %d", step, got, want)
	}
}

// TestSharedMemoRankLifetime runs one memo through the rank table's
// lifetime: a cold sweep (no table), a settled one (built and used),
// drops by Invalidate and Reset, an edge delta, an event mutation, a
// change of h, and a sweep that draws nodes published after the build
// (they send their pairs back to float keys). At every step Run and
// Plan equal the same screen on a fresh memo, and their BFSRuns,
// MemoHits and DensityEvals equal a twin memo's that goes through the
// same steps but never builds a table: the rank path serves each node
// as the hit the float path would count, once.
func TestSharedMemoRankLifetime(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 5))
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
	memo, twin := newMemo(), newMemo()

	// sweep runs Run and a top-2 Plan with seed on m. A twin is
	// unsettled before each sweep, so it never builds a table.
	sweep := func(m *SharedMemo, seed uint64) (Result, PlanResult) {
		t.Helper()
		if m == twin {
			m.unsettle()
		}
		cfg := Config{H: h, SampleSize: 60, Seed: seed, Workers: 1, Memo: m}
		run, err := Run(g, store, pairs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if m == twin {
			m.unsettle()
		}
		plan, err := Plan(g, store, pairs, PlanConfig{Config: cfg, K: 2})
		if err != nil {
			t.Fatal(err)
		}
		return run, plan
	}
	// step screens the memo, its twin and a fresh memo with seed and
	// returns how many pairs the memo's Run tested on rank keys.
	step := func(label string, seed uint64) int64 {
		t.Helper()
		before := memo.rankPairs.Load()
		gotRun, gotPlan := sweep(memo, seed)
		used := memo.rankPairs.Load() - before
		twinRun, twinPlan := sweep(twin, seed)
		wantRun, wantPlan := sweep(newMemo(), seed)
		sameRun(t, label+": Run", gotRun, wantRun)
		comparePlanned(t, gotPlan.Pairs, wantPlan.Pairs, label+": Plan")
		if gotRun.BFSRuns != twinRun.BFSRuns || gotRun.MemoHits != twinRun.MemoHits {
			t.Fatalf("%s: Run paid %d BFS and %d hits, the float twin %d and %d",
				label, gotRun.BFSRuns, gotRun.MemoHits, twinRun.BFSRuns, twinRun.MemoHits)
		}
		if evals := wantRun.BFSRuns + wantRun.MemoHits; gotRun.BFSRuns+gotRun.MemoHits != evals {
			t.Fatalf("%s: Run made %d density evaluations, a fresh memo %d", label, gotRun.BFSRuns+gotRun.MemoHits, evals)
		}
		if gotPlan.Stats != twinPlan.Stats {
			t.Fatalf("%s: Plan stats %+v, the float twin %+v", label, gotPlan.Stats, twinPlan.Stats)
		}
		if memo.rankPairs.Load() != before+used {
			t.Fatalf("%s: a top-k Plan used rank keys", label)
		}
		if memo.ranks.Load() != nil {
			checkRankTable(t, label, memo)
		}
		return used
	}
	// cold, then settled: the second sweep builds and ranks every pair.
	settle := func(label string, seed uint64) {
		t.Helper()
		if used := step(label+" (cold)", seed); used != 0 || memo.ranks.Load() != nil {
			t.Fatalf("%s: a sweep on an unsettled memo built a table (%d pairs ranked)", label, used)
		}
		if used := step(label+" (settled)", seed); used != int64(len(pairs)) {
			t.Fatalf("%s: %d of %d pairs ranked on a settled memo", label, used, len(pairs))
		}
	}
	drop := func(label string, dropped int) {
		t.Helper()
		if dropped == 0 {
			t.Fatalf("%s dropped no entry; the step proves nothing", label)
		}
		if memo.ranks.Load() != nil {
			t.Fatalf("%s kept the rank table", label)
		}
	}
	all := make([]graph.NodeID, g.NumNodes())
	for v := range all {
		all[v] = graph.NodeID(v)
	}

	settle("initial", 8)

	drop("Invalidate", memo.Invalidate(all[:200]))
	twin.Invalidate(all[:200])
	settle("after Invalidate", 8)

	n := memo.Published()
	memo.Reset()
	twin.Reset()
	drop("Reset", n)
	settle("after Reset", 8)

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
	drop("edge delta", memo.Invalidate(dirty))
	twin.Invalidate(dirty)
	g = newG
	settle("edge delta", 8)

	// A new store: five occurrences of ev-a move.
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
	ball := graph.NewBFS(g).Collect(moved, h)
	drop("event mutation", memo.Invalidate(ball))
	twin.Invalidate(ball)
	settle("event mutation", 8)

	// Another h: every density changes.
	h = 1
	drop("h change", memo.Invalidate(all))
	twin.Invalidate(all)
	settle("h change", 8)

	// Another seed draws nodes the table does not rank: their pairs
	// fall back to floats, and the next settled sweep re-ranks.
	if used := step("new seed", 9); used >= int64(len(pairs)) {
		t.Fatalf("new seed: all %d pairs ranked; no sample drew a node published after the build", used)
	}
	if used := step("new seed, rebuilt", 9); used != int64(len(pairs)) {
		t.Fatalf("new seed, rebuilt: %d of %d pairs ranked", used, len(pairs))
	}
}
