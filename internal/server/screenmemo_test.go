package server

import (
	"net/http"
	"reflect"
	"strings"
	"testing"

	"tesc"
	"tesc/internal/screen"
)

// retained returns a copy of the entry's retained screening state.
func retained(e *GraphEntry) retainedMemo {
	e.memos.mu.Lock()
	defer e.memos.mu.Unlock()
	return e.memo
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
	if r := retained(e); r.memo == nil || r.epoch != snap.Epoch || r.h != 1 {
		t.Fatalf("after jobs at epoch %d the entry retains epoch %d h %d (memo %v)", snap.Epoch, r.epoch, r.h, r.memo != nil)
	}
	return bfsRuns
}

// TestScreenJobsShareSnapshotMemo is the lifecycle of the memo tescd
// keeps per graph: concurrent jobs on one snapshot share it and stay
// bit-identical to the library, later jobs pay fewer traversals (an
// exact repeat pays none), edge and event mutations start a fresh memo
// at the new epoch, a stale snapshot never takes or displaces the
// current memo, and DELETE releases it.
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

	// A job pinned to an older snapshot may share the memo retained for
	// its own epoch, but never gets, makes or displaces a newer one.
	mutate := func(edge [2]int) (old, cur Snapshot) {
		old = e.Snapshot()
		env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": [][2]int{edge}}, nil)
		if cur = e.Snapshot(); cur.Epoch == old.Epoch {
			t.Fatal("the edge batch did not advance the epoch")
		}
		return old, cur
	}
	oldMemo := retained(e).memo
	old, cur := mutate([2]int{1, 198})
	if m := e.screenMemo(old, 1); m != oldMemo {
		t.Fatal("a stale snapshot did not share the memo retained for its epoch")
	}
	memo := e.screenMemo(cur, 1)
	if memo == nil {
		t.Fatal("the current snapshot got no memo")
	}
	if m := e.screenMemo(old, 1); m != nil {
		t.Fatal("a stale snapshot was handed the current memo")
	}
	if m := e.screenMemo(cur, 1); m != memo {
		t.Fatal("a stale lookup displaced the current memo")
	}
	_, skipped := mutate([2]int{2, 197}) // an epoch no job ran on
	mutate([2]int{3, 196})
	if m := e.screenMemo(skipped, 1); m != nil || retained(e).memo != memo {
		t.Fatal("a stale snapshot made a memo, or displaced the retained one")
	}
	now := e.Snapshot()
	if m1 := e.screenMemo(now, 1); m1 == nil || m1 == memo {
		t.Fatal("the current epoch did not replace the older memo")
	} else if m2 := e.screenMemo(now, 2); m2 == nil || m2 == m1 || retained(e).h != 2 {
		t.Fatal("another vicinity level shared the h=1 memo")
	}

	env.do(t, http.StatusNoContent, "DELETE", "/v1/graphs/g", nil, nil)
	if r := retained(e); r.memo != nil || r.elem != nil || e.memos.lru.Len() != 0 {
		t.Fatal("DELETE left the graph's memo retained")
	}
	if m := e.screenMemo(now, 2); m != nil {
		t.Fatal("a removed graph retained a new memo")
	}
}

// TestScreenMemoBudgetEvictsLRU: the memos of all entries share one
// byte budget, and the least recently used memo goes first.
func TestScreenMemoBudgetEvictsLRU(t *testing.T) {
	r := NewRegistry()
	entries := make([]*GraphEntry, 3)
	memo := func(i int) *retainedMemo {
		snap := entries[i].Snapshot()
		entries[i].screenMemo(snap, 1)
		m := retained(entries[i])
		return &m
	}
	for i, name := range []string{"a", "b", "c"} {
		entries[i] = testEntry(t, r, name)
		if err := entries[i].AddEvents(map[string][]int{"x": {0, 1}, "y": {2}}); err != nil {
			t.Fatal(err)
		}
	}
	a := memo(0)
	r.memos.budget = 2 * a.memo.Bytes()
	b := memo(1)
	if memo(0).memo != a.memo {
		t.Fatal("a retained memo was not reused")
	}
	memo(2) // over budget: b is the least recently used
	if retained(entries[1]).memo != nil || retained(entries[0]).memo != a.memo || retained(entries[2]).memo == nil {
		t.Fatal("eviction did not drop the least recently used memo")
	}
	// LRU order is now c, a: b comes back fresh and evicts a.
	if again := memo(1); again.memo == b.memo || retained(entries[0]).memo != nil || retained(entries[2]).memo == nil {
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
	gMemo := retained(g).memo
	snap := h.Snapshot()
	fresh, err := screen.NewSharedMemo(snap.Graph.NumNodes(), snap.Store.Names())
	if err != nil {
		t.Fatal(err)
	}
	reg.memos.mu.Lock()
	reg.memos.budget = gMemo.Bytes() + fresh.Bytes()
	reg.memos.mu.Unlock()

	job("h")
	hMemo := retained(h).memo
	if hMemo == nil || hMemo.Bytes() <= fresh.Bytes() {
		t.Fatal("h's job retained no memo, or did not grow it; the test proves nothing")
	}
	if retained(g).memo != nil {
		t.Fatalf("g's memo (%d B) stayed beside h's grown one (%d B) over the %d B budget",
			gMemo.Bytes(), hMemo.Bytes(), reg.memos.budget)
	}
	if n := reg.memos.lru.Len(); n != 1 {
		t.Fatalf("%d memos retained, want h's alone", n)
	}
}
