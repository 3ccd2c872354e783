package server

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"testing"

	"tesc"
	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/simulate"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// dropCounts drops every count memo the entry retains, so the next
// correlate of each pair reads cold.
func dropCounts(e *GraphEntry) {
	e.memos.mu.Lock()
	defer e.memos.mu.Unlock()
	for _, r := range e.held {
		if r.counts != nil {
			e.memos.dropLocked(r.elem)
		}
	}
}

// countsOf returns the count memo the entry retains for (a, b, h), or
// nil.
func countsOf(e *GraphEntry, a, b string, h int) *core.CountMemo {
	e.memos.mu.Lock()
	defer e.memos.mu.Unlock()
	if r := e.held[memoKey{events: a + "\x00" + b, h: h, counts: true}]; r != nil {
		return r.counts
	}
	return nil
}

// memoRead runs one correlate of the registered events a and b on snap
// through the handler's computation, as a read bound to snap.
func memoRead(t *testing.T, s *Server, e *GraphEntry, snap Snapshot, a, b string, h int, method string, seed uint64) correlateResponse {
	t.Helper()
	resp, err := memoReadErr(s, e, snap, a, b, h, method, seed)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func memoReadErr(s *Server, e *GraphEntry, snap Snapshot, a, b string, h int, method string, seed uint64) (correlateResponse, error) {
	req := correlateRequest{A: a, B: b, H: h, Method: method, Seed: seed, SampleSize: 60}
	m, err := parseMethod(method)
	if err != nil {
		return correlateResponse{}, err
	}
	opts := tesc.Options{H: h, SampleSize: req.SampleSize, Method: m, Seed: seed}
	var c flightCall
	s.runCorrelate(httptest.NewRequest(http.MethodPost, "/", nil), e, snap, &req, opts, &c)
	if c.errCode != "" {
		return correlateResponse{}, fmt.Errorf("correlate %s/%s h=%d at epoch %d: %s %s", a, b, h, snap.Epoch, c.errCode, c.errMsg)
	}
	return c.resp, nil
}

// checkLibrary fails unless resp's τ, z, p and N are the library's
// answer on snap, which has no memo.
func checkLibrary(t *testing.T, snap Snapshot, a, b string, h int, method string, seed uint64, resp correlateResponse) {
	t.Helper()
	m, _ := parseMethod(method)
	idx, err := snap.Graph.BuildVicinityIndex(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	va, _ := storeOccurrences(snap.Store, a)
	vb, _ := storeOccurrences(snap.Store, b)
	lib, err := tesc.Correlation(snap.Graph, va, vb, tesc.Options{H: h, SampleSize: 60, Method: m, Seed: seed, Index: idx})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Epoch != snap.Epoch || resp.Tau != lib.Tau || resp.Z != lib.Z || resp.P != lib.P || resp.N != lib.N || resp.SamplerBFS != lib.SamplerBFS {
		t.Fatalf("%s/%s h=%d %s seed %d at epoch %d: served %+v, library %+v", a, b, h, method, seed, snap.Epoch, resp, lib)
	}
	// At h = 1 the misses may run from the reference side, by ball sum
	// cheaper than the library's event side yet more traversals.
	if resp.DensityBFS > max(lib.DensityBFS, int64(lib.N)) {
		t.Fatalf("%s/%s at epoch %d ran %d density traversals, the library %d", a, b, snap.Epoch, resp.DensityBFS, lib.DensityBFS)
	}
}

// TestCountMemoRepeatReadAfterBatch: after a 10-flip batch, a repeat
// correlate of the same pair runs a density traversal only for its
// sampled nodes inside the batch's dirty set and those whose counts do
// not fit the memo's byte. The flips keep more than h hops from every
// event node, so the sample stays the same and the first read's
// records cover it, yet some sampled nodes are dirty.
func TestCountMemoRepeatReadAfterBatch(t *testing.T) {
	const h = 2
	g := tesc.RandomCoauthorshipGraph(0.05, 5)
	rng := rand.New(rand.NewPCG(5, 0xba7c))
	pair, err := simulate.PositivePair(g.Internal(), simulate.Config{H: h, Occurrences: 40}, rng)
	if err != nil {
		t.Fatal(err)
	}
	env := serve(New(Config{}))
	e, err := env.srv.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	va, vb := graph.NewNodeSet(g.NumNodes(), pair.Va), graph.NewNodeSet(g.NumNodes(), pair.Vb)
	occ := map[string][]int{"a": nodeInts(va.Members()), "b": nodeInts(vb.Members())}
	if err := env.srv.applyEvents(e, occ, nil, false); err != nil {
		t.Fatal(err)
	}
	body := map[string]any{"a": "a", "b": "b", "h": h, "method": "importance", "seed": 9}
	var first, second correlateResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", body, &first)
	before := e.Snapshot()

	// Flip endpoints lie h+1 or h+2 hops from the nearest event node.
	bfs := graph.NewBFS(g.Internal())
	near := map[graph.NodeID]bool{}
	for _, v := range bfs.Collect(va.Union(vb).Members(), h) {
		near[v] = true
	}
	var far []graph.NodeID
	for _, v := range bfs.Collect(va.Union(vb).Members(), h+2) {
		if !near[v] {
			far = append(far, v)
		}
	}
	var ins [][2]int
	for len(ins) < 10 {
		u, v := far[rng.IntN(len(far))], far[rng.IntN(len(far))]
		if u != v && !g.Internal().HasEdge(u, v) {
			ins = append(ins, [2]int{int(u), int(v)})
		}
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": ins}, nil)
	after := e.Snapshot()
	hits := healthCounters(t, env)["density_memo_hits"]
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", body, &second)
	hits = healthCounters(t, env)["density_memo_hits"] - hits

	// The library's view of the second read: its sample, the batch's
	// dirty set at h, and the sampled records too big for a byte.
	idx, err := after.Graph.BuildVicinityIndex(h, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := core.MustNewProblem(after.Graph.Internal(), va, vb)
	res, err := core.Test(p, core.Options{H: h, SampleSize: 900, Alpha: 0.05, Alternative: stats.TwoSided,
		Sampler: &core.ImportanceSampler{Index: idx.Internal()},
		Rand:    rand.New(rand.NewPCG(9, 9^0x9e3779b97f4a7c15))})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tau != second.Tau || res.Z != second.Z || res.P != second.P {
		t.Fatalf("served %+v, library tau=%v z=%v p=%v", second, res.Tau, res.Z, res.P)
	}
	var flips []graph.EdgeChange
	for _, c := range ins {
		flips = append(flips, graph.EdgeChange{U: graph.NodeID(c[0]), V: graph.NodeID(c[1]), Insert: true})
	}
	dirty, err := vicinity.DirtySet(before.Graph.Internal(), after.Graph.Internal(), flips, h, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _, ds := core.NewDensityEvaluatorBFS(p, h, graph.NewBFS(p.G)).EvalAll(res.Nodes)
	inDirty, overflow := 0, 0
	for i, r := range res.Nodes {
		switch d := ds[i]; {
		case slices.Contains(dirty, r):
			inDirty++
		case d.CountA > 7 || d.CountB > 7 || d.CountA+d.CountB-d.CountUnion > 3:
			overflow++
		}
	}
	if inDirty == 0 || inDirty+overflow >= second.N {
		t.Fatalf("flips dirty %d and overflow %d of %d sampled nodes: the case tests nothing", inDirty, overflow, second.N)
	}
	if second.DensityBFS > int64(inDirty+overflow) {
		t.Fatalf("repeat read ran %d density traversals, want at most %d dirty + %d that do not fit",
			second.DensityBFS, inDirty, overflow)
	}
	if int64(hits) != int64(second.N)-second.DensityBFS {
		t.Fatalf("density_memo_hits rose by %v, want n - density_bfs = %d", hits, int64(second.N)-second.DensityBFS)
	}
	if first.DensityBFS != int64(first.N) {
		t.Fatalf("cold read ran %d density traversals for %d nodes", first.DensityBFS, first.N)
	}
}

// TestCountMemoDifferential serves seeded random reads of registered
// pairs through the count memos beside edge batches and event
// mutations, and checks every served τ, z, p against the library on
// the snapshot the read was bound to. It covers h = 1..3, overlapping
// events, a dense event whose counts overflow the byte, reads pinned to
// the previous epoch while a batch publishes the next, and concurrent
// reads of one memo (run it under -race).
func TestCountMemoDifferential(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := uint64(1); seed <= uint64(seeds); seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { countMemoDifferential(t, seed) })
	}
}

func countMemoDifferential(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, 0xd1ff))
	h := 1 + int(seed%3)
	g := tesc.RandomCommunityGraph(4, 80+rng.IntN(80), 4, 0.5, seed)
	s := New(Config{})
	e, err := s.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	pick := func(k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = rng.IntN(n)
		}
		return out
	}
	a := pick(12)
	b := append(pick(8), a[:4]...) // overlapping with a
	// dense: the top-degree node and its whole ball, so the hub's own
	// record (at least 8 occurrences at any h) cannot fit a byte.
	hub := graph.NodeID(0)
	for v := range graph.NodeID(n) {
		if g.Internal().Degree(v) > g.Internal().Degree(hub) {
			hub = v
		}
	}
	if g.Internal().Degree(hub) < 7 {
		t.Fatalf("top degree %d: the dense event fits a byte", g.Internal().Degree(hub))
	}
	var dense []int
	for _, v := range graph.NewBFS(g.Internal()).Collect([]graph.NodeID{hub}, 1) {
		dense = append(dense, int(v))
	}
	if err := s.applyEvents(e, map[string][]int{"a": a, "b": b, "dense": dense, "c": pick(6)}, nil, false); err != nil {
		t.Fatal(err)
	}
	pairs := [][2]string{{"a", "b"}, {"b", "a"}, {"a", "dense"}, {"dense", "c"}, {"a", "a"}}
	methods := []string{"importance", "rejection"}
	stream := graphgen.NewFlipStream(g.Internal(), 0.5, rand.New(rand.NewPCG(seed, 0xf1)))
	batch := func() {
		if _, err := s.applyEdges(e, publicFlips(stream.Take(1+rng.IntN(10))), false); err != nil {
			t.Error(err)
		}
	}
	var served int
	for step := 0; step < 40; step++ {
		p := pairs[rng.IntN(len(pairs))]
		method := methods[rng.IntN(len(methods))]
		rseed := rng.Uint64()
		switch op := rng.IntN(10); {
		case op < 5: // a read of the current epoch
			snap := e.Snapshot()
			checkLibrary(t, snap, p[0], p[1], h, method, rseed, memoRead(t, s, e, snap, p[0], p[1], h, method, rseed))
			served++
		case op < 8: // reads pinned to this epoch while a batch publishes the next
			snap := e.Snapshot()
			var wg sync.WaitGroup
			resps := make([]correlateResponse, 3)
			wg.Add(1)
			go func() { defer wg.Done(); batch() }()
			for i := range resps {
				wg.Add(1)
				go func() {
					defer wg.Done()
					var err error
					if resps[i], err = memoReadErr(s, e, snap, p[0], p[1], h, method, rseed+uint64(i)); err != nil {
						t.Error(err)
					}
				}()
			}
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			for i, resp := range resps {
				checkLibrary(t, snap, p[0], p[1], h, method, rseed+uint64(i), resp)
			}
			// Once the batch has published, snap is the previous epoch.
			checkLibrary(t, snap, p[0], p[1], h, method, rseed, memoRead(t, s, e, snap, p[0], p[1], h, method, rseed))
			served += len(resps) + 1
		case op < 9: // an event mutation: a few occurrences of one event move
			name := []string{"a", "b", "dense", "c"}[rng.IntN(4)]
			occ := e.Snapshot().Store.Occurrences(name)
			remove := map[string][]int{name: {int(occ[rng.IntN(len(occ))])}}
			if len(occ) == 1 {
				remove = nil
			}
			if err := s.applyEvents(e, map[string][]int{name: pick(2)}, remove, false); err != nil {
				t.Fatal(err)
			}
		default:
			batch()
		}
	}
	if served == 0 {
		t.Fatal("no read served")
	}
}

// publicFlips converts stream flips to the public change type.
func publicFlips(cs []graph.EdgeChange) []tesc.EdgeChange {
	out := make([]tesc.EdgeChange, len(cs))
	for i, c := range cs {
		out[i] = tesc.EdgeChange{U: int(c.U), V: int(c.V), Insert: c.Insert}
	}
	return out
}

// TestCountMemoLifetime: a count memo follows edge batches, whether or
// not an index at its level repairs them, and event mutations, its own
// events' and others'; it is never made by a read pinned behind the
// entry, and is replaced once it missed an epoch bump.
func TestCountMemoLifetime(t *testing.T) {
	s := New(Config{})
	g := tesc.RandomCommunityGraph(3, 60, 4, 0.5, 3)
	e, err := s.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.applyEvents(e, map[string][]int{"a": {1, 2, 3}, "b": {4, 5, 70}, "c": {9}}, nil, false); err != nil {
		t.Fatal(err)
	}
	snap := e.Snapshot()
	memoRead(t, s, e, snap, "a", "b", 2, "importance", 1)
	m := countsOf(e, "a", "b", 2)
	if m == nil || m.Epoch() != snap.Epoch {
		t.Fatalf("no memo at epoch %d after a read", snap.Epoch)
	}
	if _, err := s.applyEdges(e, []tesc.EdgeChange{{U: 0, V: 150, Insert: true}}, false); err != nil {
		t.Fatal(err)
	}
	if countsOf(e, "a", "b", 2) != m || m.Epoch() != snap.Epoch+1 {
		t.Fatal("a batch the h=2 index repaired did not advance the memo")
	}
	if err := s.applyEvents(e, map[string][]int{"c": {10}}, nil, false); err != nil {
		t.Fatal(err)
	}
	if countsOf(e, "a", "b", 2) != m || m.Epoch() != snap.Epoch+2 {
		t.Fatal("a mutation of another event did not advance the memo")
	}
	if err := s.applyEvents(e, map[string][]int{"b": {11}}, nil, false); err != nil {
		t.Fatal(err)
	}
	if countsOf(e, "a", "b", 2) != m || m.Epoch() != snap.Epoch+3 {
		t.Fatal("a mutation of the pair's event did not advance the memo")
	}
	memoRead(t, s, e, e.Snapshot(), "a", "b", 2, "importance", 1)
	s.cache.EvictGraph(e)
	if _, err := s.applyEdges(e, []tesc.EdgeChange{{U: 1, V: 151, Insert: true}}, false); err != nil {
		t.Fatal(err)
	}
	if countsOf(e, "a", "b", 2) != m || m.Epoch() != snap.Epoch+4 {
		t.Fatal("a batch no index repaired did not advance the memo")
	}
	// A read pinned behind the entry makes nothing.
	dropCounts(e)
	memoRead(t, s, e, snap, "a", "b", 2, "importance", 1)
	if countsOf(e, "a", "b", 2) != nil {
		t.Fatal("a read pinned behind the entry made a memo")
	}
	// An epoch bump outside the mutation hooks leaves the memo stale;
	// the next read replaces it.
	memoRead(t, s, e, e.Snapshot(), "a", "b", 2, "importance", 1)
	stale := countsOf(e, "a", "b", 2)
	if err := e.AddStore(events.NewBuilder(g.NumNodes()).Build()); err != nil {
		t.Fatal(err)
	}
	memoRead(t, s, e, e.Snapshot(), "a", "b", 2, "importance", 1)
	if fresh := countsOf(e, "a", "b", 2); fresh == nil || fresh == stale || fresh.Epoch() != e.Epoch() {
		t.Fatal("a stale memo was not replaced")
	}
	// Batch-bfs reads keep no memo.
	memoRead(t, s, e, e.Snapshot(), "a", "c", 2, "batch-bfs", 1)
	if len(e.held) != 1 {
		t.Fatalf("%d memos, want 1", len(e.held))
	}
}

// TestCountMemoBudgetEvicts: count memos share the registry's memo
// budget with the screening memos, least recently used first, and a
// graph's removal releases them.
func TestCountMemoBudgetEvicts(t *testing.T) {
	s := New(Config{})
	g := tesc.RandomCommunityGraph(3, 60, 4, 0.5, 3)
	e, err := s.Registry().Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.applyEvents(e, map[string][]int{"a": {1, 2}, "b": {4, 5}, "c": {9, 70}}, nil, false); err != nil {
		t.Fatal(err)
	}
	one := core.NewCountMemo(g.NumNodes(), 1, 1).Bytes()
	s.registry.memos.mu.Lock()
	s.registry.memos.budget = 2 * one
	s.registry.memos.mu.Unlock()
	snap := e.Snapshot()
	memoRead(t, s, e, snap, "a", "b", 1, "importance", 1)
	memoRead(t, s, e, snap, "b", "c", 1, "importance", 1)
	memoRead(t, s, e, snap, "a", "b", 1, "importance", 2) // a/b is now the most recent
	memoRead(t, s, e, snap, "a", "c", 1, "importance", 1) // over budget: b/c goes
	if countsOf(e, "b", "c", 1) != nil || countsOf(e, "a", "b", 1) == nil || countsOf(e, "a", "c", 1) == nil {
		t.Fatal("the least recently used count memo was not the one evicted")
	}
	if n := s.registry.memos.lru.Len(); n != 2 {
		t.Fatalf("%d memos retained under a two-memo budget", n)
	}
	s.Registry().Remove("g")
	if n := s.registry.memos.lru.Len(); n != 0 || len(e.held) != 0 {
		t.Fatalf("%d memos retained after the graph's removal", n)
	}
}
