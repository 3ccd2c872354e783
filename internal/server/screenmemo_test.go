package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"tesc"
	"tesc/internal/screen"
)

// denseMemo returns the density memo the entry retains for the sorted
// vocabulary names at level h, or nil.
func denseMemo(e *GraphEntry, names []string, h int) *screen.SharedMemo {
	e.memos.mu.Lock()
	defer e.memos.mu.Unlock()
	if r := e.held[memoKey{events: strings.Join(names, "\x00"), h: h}]; r != nil {
		return r.dense
	}
	return nil
}

// pairViews converts library results to their wire shape.
func pairViews(pairs []tesc.ScreenedPair) []ScreenedPairView {
	out := make([]ScreenedPairView, len(pairs))
	for i, p := range pairs {
		out[i] = ScreenedPairView{A: p.A, B: p.B, OccA: p.OccA, OccB: p.OccB,
			Tau: p.Tau, Z: p.Z, P: p.P, AdjP: p.AdjP, Significant: p.Significant, Skipped: p.Skipped}
	}
	return out
}

// screenRound submits a top-k and an exhaustive job per seed, all
// before polling any, so jobs on one snapshot run at the same time and
// share its memo. Each result must equal tesc.ScreenTopK / tesc.Screen
// run from scratch on the snapshot's events. It returns the traversals
// the round paid.
func screenRound(t *testing.T, env *testEnv, e *GraphEntry, seeds ...uint64) (bfsRuns int64) {
	t.Helper()
	snap := e.Snapshot()
	ev := eventSetOf(snap.Store)
	type submitted struct {
		id   string
		seed uint64
		topK int
	}
	var jobs []submitted
	for _, seed := range seeds {
		for _, topK := range []int{2, 0} {
			// One worker keeps the planner's prune counts deterministic;
			// the exhaustive job races two workers over the memo.
			body := map[string]any{"h": 1, "sample_size": 150, "seed": seed, "workers": 2}
			if topK > 0 {
				body["top_k"], body["workers"] = topK, 1
			}
			var acc screenResponse
			env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen", body, &acc)
			jobs = append(jobs, submitted{acc.JobID, seed, topK})
		}
	}
	for _, j := range jobs {
		view := pollJob(t, env, j.id)
		if view.Status != JobDone {
			t.Fatalf("job %s: %s", j.id, view.Error)
		}
		got := view.Result
		bfsRuns += got.BFSRuns
		opts := tesc.ScreenOptions{H: 1, SampleSize: 150, Seed: j.seed, Workers: 1}
		if j.topK > 0 {
			want, err := tesc.ScreenTopK(snap.Graph, ev, tesc.ScreenTopKOptions{ScreenOptions: opts, K: j.topK})
			if err != nil {
				t.Fatal(err)
			}
			ps := got.Planner
			if !reflect.DeepEqual(got.Pairs, pairViews(want.Pairs)) || ps == nil ||
				ps.Candidates != want.Candidates || ps.FullTests != want.FullTests ||
				ps.PrunedEarly != want.PrunedEarly || ps.DensityEvals != want.DensityEvals {
				t.Fatalf("epoch %d seed %d: top-k job differs from the library\n got %+v %+v\nwant %+v",
					snap.Epoch, j.seed, got.Pairs, ps, want)
			}
			if got.MemoHits+got.BFSRuns != ps.DensityEvals {
				t.Fatalf("top-k job: hits %d + runs %d != evals %d", got.MemoHits, got.BFSRuns, ps.DensityEvals)
			}
			continue
		}
		opts.Workers = 2
		want, err := tesc.Screen(snap.Graph, ev, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Pairs, pairViews(want.Pairs)) || got.Tested != want.Tested ||
			got.Skipped != want.Skipped || got.Rejected != want.Rejected {
			t.Fatalf("epoch %d seed %d: exhaustive job differs from the library\n got %+v\nwant %+v",
				snap.Epoch, j.seed, got, want)
		}
	}
	if denseMemo(e, snap.Store.Names(), 1) == nil {
		t.Fatalf("after jobs at epoch %d the entry retains no memo for them", snap.Epoch)
	}
	return bfsRuns
}

// TestScreenJobsShareSnapshotMemo is the lifecycle of the memo tescd
// keeps per graph: concurrent jobs on one snapshot share it and stay
// bit-identical to the library, later jobs pay fewer traversals (an
// exact repeat pays none), the first jobs after edge and event
// mutations recompute what the mutation dirtied, a pin admits only
// sweeps at its epoch, a stale snapshot never takes or makes a memo,
// and DELETE releases it.
func TestScreenJobsShareSnapshotMemo(t *testing.T) {
	env := newTestEnv(t)
	plannerEvents(t, env)
	e, ok := env.srv.Registry().Get("g")
	if !ok {
		t.Fatal("graph not registered")
	}

	cold := screenRound(t, env, e, 0, 5)
	if cold == 0 {
		t.Fatal("the first jobs on a snapshot paid no traversals")
	}
	if warm := screenRound(t, env, e, 6, 7); warm >= cold {
		t.Fatalf("later jobs paid %d traversals, the first ones %d: the memo was not shared", warm, cold)
	}
	var repeat screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 150, "seed": 5}, &repeat)
	if v := pollJob(t, env, repeat.JobID); v.Result.BFSRuns != 0 || v.Result.MemoHits == 0 {
		t.Fatalf("a repeated job paid %d traversals with %d hits, want 0 and > 0", v.Result.BFSRuns, v.Result.MemoHits)
	}

	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": [][2]int{{0, 199}}}, nil)
	if afterEdges := screenRound(t, env, e, 5); afterEdges == 0 {
		t.Fatal("the first job after an edge batch served the old epoch's memo")
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events", map[string]any{"events": map[string][]int{"mid": {90, 91}}}, nil)
	if afterEvents := screenRound(t, env, e, 5); afterEvents == 0 {
		t.Fatal("the first job after an event mutation served the old epoch's memo")
	}

	// The memo follows the entry's versions. A snapshot behind it is
	// refused; while it is pinned, only sweeps at the pinned epoch share
	// it, and the next batch's drop waits for the last unpin.
	mutate := func(edge [2]int) (old, cur Snapshot) {
		old = e.Snapshot()
		env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": [][2]int{edge}}, nil)
		if cur = e.Snapshot(); cur.Epoch == old.Epoch {
			t.Fatal("the edge batch did not advance the epoch")
		}
		return old, cur
	}
	names := e.Snapshot().Store.Names()
	memo := denseMemo(e, names, 1)
	old, cur := mutate([2]int{1, 198})
	if m, _ := e.lendMemo(names, 1, old.Epoch); m != nil {
		t.Fatal("a stale snapshot was lent the memo that moved past it")
	}
	m, release := e.lendMemo(names, 1, cur.Epoch)
	if m != memo {
		t.Fatal("the current snapshot was not lent the memo that followed the batch")
	}
	_, next := mutate([2]int{2, 197})
	if m, _ := e.lendMemo(names, 1, next.Epoch); m != nil {
		t.Fatal("a memo pinned to one epoch was lent at another")
	}
	if m, again := e.lendMemo(names, 1, cur.Epoch); m != memo {
		t.Fatal("a second sweep at the pinned epoch did not share the memo")
	} else {
		again()
	}
	release()
	if m, release := e.lendMemo(names, 1, next.Epoch); m != memo {
		t.Fatal("after the last unpin the memo did not admit the current epoch")
	} else {
		release()
	}
	if m, _ := e.lendMemo(names, 2, old.Epoch); m != nil || denseMemo(e, names, 2) != nil {
		t.Fatal("a stale snapshot made a memo")
	}
	now := e.Snapshot()
	if m, release := e.lendMemo(names, 2, now.Epoch); m == nil || m == memo {
		t.Fatal("another vicinity level shared the h=1 memo")
	} else {
		release()
	}

	env.do(t, http.StatusNoContent, "DELETE", "/v1/graphs/g", nil, nil)
	if len(e.held) != 0 || e.memos.lru.Len() != 0 {
		t.Fatal("DELETE left the graph's memos retained")
	}
	if m, _ := e.lendMemo(names, 2, now.Epoch); m != nil {
		t.Fatal("a removed graph retained a new memo")
	}
}

// TestScreenMemoBudgetEvictsLRU: the memos of all entries share one
// byte budget, and the least recently used memo goes first.
func TestScreenMemoBudgetEvictsLRU(t *testing.T) {
	r := NewRegistry()
	entries := make([]*GraphEntry, 3)
	memo := func(i int) *screen.SharedMemo {
		snap := entries[i].Snapshot()
		m, release := entries[i].lendMemo(snap.Store.Names(), 1, snap.Epoch)
		release()
		return m
	}
	held := func(i int) *screen.SharedMemo { return denseMemo(entries[i], []string{"x", "y"}, 1) }
	for i, name := range []string{"a", "b", "c"} {
		entries[i] = testEntry(t, r, name)
		if err := entries[i].AddEvents(map[string][]int{"x": {0, 1}, "y": {2}}); err != nil {
			t.Fatal(err)
		}
	}
	a := memo(0)
	r.memos.budget = 2 * a.Bytes()
	b := memo(1)
	if memo(0) != a {
		t.Fatal("a retained memo was not reused")
	}
	memo(2) // over budget: b is the least recently used
	if held(1) != nil || held(0) != a || held(2) == nil {
		t.Fatal("eviction did not drop the least recently used memo")
	}
	// LRU order is now c, a: b comes back fresh and evicts a.
	if again := memo(1); again == b || held(0) != nil || held(2) == nil {
		t.Fatal("b did not come back fresh, evicting a")
	}
	if n := r.memos.lru.Len(); n != 2 {
		t.Fatalf("%d memos retained under a two-memo budget", n)
	}
}

// TestScreenMemoBudgetTrimsGrowth: a memo grows after a job installs
// it (populations, its rank table), so a finished job re-checks
// the budget. Graph h's memo fits next to g's grown one when its job
// installs it, then its own job grows it past the budget: g's, the
// least recently used, must go when that job finishes.
func TestScreenMemoBudgetTrimsGrowth(t *testing.T) {
	env := newTestEnv(t)
	ev := plannerEvents(t, env)
	var edges strings.Builder
	if err := env.graph.WriteGraph(&edges); err != nil {
		t.Fatal(err)
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs", map[string]any{"name": "h", "edge_list": edges.String()}, nil)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/h/events", map[string]any{"events": ev}, nil)
	reg := env.srv.Registry()
	g, _ := reg.Get("g")
	h, _ := reg.Get("h")
	job := func(graph string) {
		t.Helper()
		var acc screenResponse
		env.do(t, http.StatusAccepted, "POST", "/v1/graphs/"+graph+"/screen",
			map[string]any{"h": 1, "sample_size": 150, "seed": 3, "workers": 1}, &acc)
		if v := pollJob(t, env, acc.JobID); v.Status != JobDone {
			t.Fatalf("job on %s: %s", graph, v.Error)
		}
	}

	job("g")
	vocab := g.Snapshot().Store.Names()
	gMemo := denseMemo(g, vocab, 1)
	snap := h.Snapshot()
	fresh, err := screen.NewSharedMemo(snap.Graph.NumNodes(), snap.Store.Names())
	if err != nil {
		t.Fatal(err)
	}
	reg.memos.mu.Lock()
	reg.memos.budget = gMemo.Bytes() + fresh.Bytes()
	reg.memos.mu.Unlock()

	job("h")
	hMemo := denseMemo(h, vocab, 1)
	if hMemo == nil || hMemo.Bytes() <= fresh.Bytes() {
		t.Fatal("h's job retained no memo, or did not grow it; the test proves nothing")
	}
	if denseMemo(g, vocab, 1) != nil {
		t.Fatalf("g's memo (%d B) stayed beside h's grown one (%d B) over the %d B budget",
			gMemo.Bytes(), hMemo.Bytes(), reg.memos.budget)
	}
	if n := reg.memos.lru.Len(); n != 1 {
		t.Fatalf("%d memos retained, want h's alone", n)
	}
}

// TestScreenJobAfterBatchReusesMemo: a screen job after a one-edge
// batch reuses the densities the batch cannot have changed, so it pays
// fewer traversals than the same job before the batch, and it stays
// bit-identical to the library on the new graph.
func TestScreenJobAfterBatchReusesMemo(t *testing.T) {
	env := newTestEnv(t)
	ev := plannerEvents(t, env)
	run := func() *ScreenResultView {
		t.Helper()
		var acc screenResponse
		env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
			map[string]any{"h": 1, "sample_size": 150, "seed": 5, "workers": 1}, &acc)
		view := pollJob(t, env, acc.JobID)
		if view.Status != JobDone {
			t.Fatalf("job %s: %s", acc.JobID, view.Error)
		}
		return view.Result
	}
	before := run()
	batch := []tesc.EdgeChange{{U: 0, V: 199, Insert: true}}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": [][2]int{{0, 199}}}, nil)
	after := run()

	g, applied, err := env.graph.ApplyEdgeChanges(batch)
	if err != nil || len(applied) != 1 {
		t.Fatalf("library batch: %d applied, err %v", len(applied), err)
	}
	want, err := tesc.Screen(g, ev, tesc.ScreenOptions{H: 1, SampleSize: 150, Seed: 5, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after.Pairs, pairViews(want.Pairs)) || after.Tested != want.Tested ||
		after.Skipped != want.Skipped || after.Rejected != want.Rejected {
		t.Fatalf("the job after the batch differs from the library\n got %+v\nwant %+v", after, want)
	}
	t.Logf("traversals: %d before the batch, %d after (%d hits)", before.BFSRuns, after.BFSRuns, after.MemoHits)
	if after.BFSRuns >= before.BFSRuns || after.MemoHits == 0 {
		t.Fatalf("the job after the batch paid %d traversals with %d hits, the one before %d: it reused nothing",
			after.BFSRuns, after.MemoHits, before.BFSRuns)
	}
}
