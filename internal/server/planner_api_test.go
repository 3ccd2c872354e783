package server

import (
	"net/http"
	"reflect"
	"testing"
	"time"

	"tesc"
)

// plannerEvents registers two extra events on the stock test graph so a
// sweep sees 4 events → 6 candidate pairs, and returns the full event
// set for direct library calls.
func plannerEvents(t *testing.T, env *testEnv) tesc.EventSet {
	t.Helper()
	extra := map[string][]int{
		"mid":    {80, 81, 82, 83, 84, 85, 86, 87},
		"spread": {0, 40, 80, 120, 160, 199},
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events", map[string]any{"events": extra}, nil)
	return tesc.EventSet{"left": env.va, "right": env.vb, "mid": extra["mid"], "spread": extra["spread"]}
}

// pollJob polls the job until it leaves JobRunning, failing on timeout.
func pollJob(t *testing.T, env *testEnv, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		// A fresh view per poll: decoding into the previous one would
		// keep fields the newer body omits (a finished job's partial).
		var view JobView
		env.do(t, http.StatusOK, "GET", "/v1/jobs/"+id, nil, &view)
		if view.Status == JobDone || view.Status == JobFailed {
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s (progress %d/%d)", view.Status, view.Done, view.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestPlannedScreenJob runs planned screening jobs and compares each
// polled result with the direct tesc.ScreenTopK call: the ranked pairs
// must be bit-identical and the planner accounting must surface, in the
// job and in healthz, whose screen_pairs_pruned grows by the job's
// pruned_early + pruned_prior. The positive-tail threshold job prunes
// pairs by their prior. One worker on both sides: with several, how
// many pairs a racing bar prunes depends on scheduling (the ranking
// does not).
func TestPlannedScreenJob(t *testing.T) {
	env := newTestEnv(t)
	ev := plannerEvents(t, env)

	base := tesc.ScreenOptions{H: 1, SampleSize: 200, Seed: 11, Workers: 1}
	positive := base
	positive.Tail = tesc.PositiveTail
	cases := []struct {
		label string
		opts  tesc.ScreenTopKOptions
		body  map[string]any
		prior bool // the prior must prune
	}{
		{"top-2", tesc.ScreenTopKOptions{ScreenOptions: base, K: 2},
			map[string]any{"h": 1, "sample_size": 200, "seed": 11, "top_k": 2, "workers": 1}, false},
		{"positive θ=0.1", tesc.ScreenTopKOptions{ScreenOptions: positive, Theta: 0.1},
			map[string]any{"h": 1, "sample_size": 200, "seed": 11, "tail": "positive", "theta": 0.1, "workers": 1}, true},
	}
	for _, c := range cases {
		want, err := tesc.ScreenTopK(env.graph, ev, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if c.prior && want.PrunedPrior == 0 {
			t.Fatalf("%s: the prior pruned nothing: %+v", c.label, want)
		}
		prunedBefore := healthPruned(t, env)

		var accepted screenResponse
		env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen", c.body, &accepted)
		view := pollJob(t, env, accepted.JobID)
		if view.Status != JobDone {
			t.Fatalf("%s: job failed: %s", c.label, view.Error)
		}
		if view.Result == nil {
			t.Fatalf("%s: done job has no result", c.label)
		}
		if len(view.Partial) != 0 {
			t.Fatalf("%s: done job still exposes a partial ranking: %+v", c.label, view.Partial)
		}
		if len(view.Result.Pairs) != len(want.Pairs) {
			t.Fatalf("%s: job returned %d pairs, want %d", c.label, len(view.Result.Pairs), len(want.Pairs))
		}
		for i, p := range view.Result.Pairs {
			w := want.Pairs[i]
			exp := ScreenedPairView{A: w.A, B: w.B, OccA: w.OccA, OccB: w.OccB,
				Tau: w.Tau, Z: w.Z, P: w.P, AdjP: w.AdjP, Significant: w.Significant, Skipped: w.Skipped}
			if !reflect.DeepEqual(p, exp) {
				t.Fatalf("%s: pair %d: %+v != direct %+v", c.label, i, p, exp)
			}
		}
		ps := view.Result.Planner
		if ps == nil {
			t.Fatalf("%s: planned job result has no planner stats", c.label)
		}
		if ps.Candidates != want.Candidates || ps.FullTests != want.FullTests ||
			ps.PrunedEarly != want.PrunedEarly || ps.PrunedPrior != want.PrunedPrior {
			t.Fatalf("%s: planner stats %+v do not match direct run %+v", c.label, ps, want)
		}
		if view.Result.Tested != want.FullTests {
			t.Fatalf("%s: tested = %d, want the planner's full-test count %d", c.label, view.Result.Tested, want.FullTests)
		}
		if got, want := healthPruned(t, env)-prunedBefore, ps.PrunedEarly+ps.PrunedPrior; got != want {
			t.Fatalf("%s: healthz screen_pairs_pruned grew by %d, want pruned_early + pruned_prior = %d", c.label, got, want)
		}
	}

	var health map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &health)
	if got, ok := health["screens_planned"].(float64); !ok || got < 2 {
		t.Fatalf("healthz screens_planned = %v, want >= 2", health["screens_planned"])
	}
}

// healthPruned reads healthz's screen_pairs_pruned.
func healthPruned(t *testing.T, env *testEnv) int {
	t.Helper()
	var health map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &health)
	n, ok := health["screen_pairs_pruned"].(float64)
	if !ok {
		t.Fatalf("healthz screen_pairs_pruned = %v", health["screen_pairs_pruned"])
	}
	return int(n)
}

// TestThresholdScreenJob runs a threshold-mode job (theta = 0 must be
// expressible) and checks it against the direct library call.
func TestThresholdScreenJob(t *testing.T) {
	env := newTestEnv(t)
	ev := plannerEvents(t, env)

	want, err := tesc.ScreenTopK(env.graph, ev, tesc.ScreenTopKOptions{
		ScreenOptions: tesc.ScreenOptions{H: 1, SampleSize: 200, Seed: 11, Tail: tesc.PositiveTail},
		Theta:         0,
	})
	if err != nil {
		t.Fatal(err)
	}

	var accepted screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 200, "seed": 11, "tail": "positive", "theta": 0.0}, &accepted)
	view := pollJob(t, env, accepted.JobID)
	if view.Status != JobDone {
		t.Fatalf("job failed: %s", view.Error)
	}
	if len(view.Result.Pairs) != len(want.Pairs) {
		t.Fatalf("threshold job returned %d pairs, direct run %d", len(view.Result.Pairs), len(want.Pairs))
	}
	for i, p := range view.Result.Pairs {
		w := want.Pairs[i]
		if p.A != w.A || p.B != w.B || p.Tau != w.Tau {
			t.Fatalf("pair %d: %+v != direct %+v", i, p, w)
		}
	}
}

// TestPlannedScreenValidation guards the planner-mode 400 paths.
func TestPlannedScreenValidation(t *testing.T) {
	env := newTestEnv(t)
	cases := []map[string]any{
		{"h": 1, "top_k": -1},                      // negative k
		{"h": 1, "top_k": 2, "theta": 0.5},         // both modes
		{"h": 1, "top_k": 2, "bonferroni": true},   // correction needs the family
		{"h": 1, "theta": 0.1, "bonferroni": true}, // ... in threshold mode too
		{"h": 1, "bound_alpha": 1e-6},              // bound without a planned mode
		{"h": 1, "theta": 1.5},                     // theta out of range
		{"h": 1, "top_k": 2, "workers": 1, "x": 1}, // unknown field
		{"h": 1, "top_k": 2, "bound_alpha": 1.5},   // bound alpha out of range
		{"h": 1, "top_k": 2, "bound_alpha": 1},
		{"h": 1, "theta": 0.1, "bound_alpha": 1.5},
		{"h": 1, "theta": 0.1, "bound_alpha": 1},
		{"h": 0, "top_k": 2},
	}
	for _, body := range cases {
		if err := env.doErr(http.StatusBadRequest, "POST", "/v1/graphs/g/screen", body, nil); err != nil {
			t.Errorf("%+v: %v", body, err)
		}
	}
}

// TestScreenRejectsBadAlphaAndSampleSize: an out-of-range alpha,
// sample_size, h, top_k or bound_alpha is a 400 for exhaustive and
// planned screens alike, decided before a background job slot is taken — with every slot held the bad
// request still gets its 400, not a 503, and no job is ever created.
func TestScreenRejectsBadAlphaAndSampleSize(t *testing.T) {
	env := newTestEnv(t)
	var holds []func()
	for {
		release, ok := env.srv.adm.acquireJobSlot()
		if !ok {
			break
		}
		holds = append(holds, release)
	}
	defer func() {
		for _, release := range holds {
			release()
		}
	}()
	if err := env.doErr(http.StatusServiceUnavailable, "POST", "/v1/graphs/g/screen", map[string]any{"h": 1}, nil); err != nil {
		t.Fatalf("saturated gate: %v", err)
	}
	for _, body := range []map[string]any{
		{"h": 1, "alpha": 1.5},
		{"h": 1, "alpha": -0.1},
		{"h": 1, "alpha": 1},
		{"h": 1, "sample_size": 1},
		{"h": 1, "sample_size": -4},
		{"h": 1, "top_k": 2, "alpha": 1.5},
		{"h": 1, "theta": 0.1, "sample_size": 1},
		{"h": 1, "top_k": 2, "bound_alpha": 1.5},
		{"h": 1, "top_k": 2, "bound_alpha": 1},
		{"h": 1, "theta": 0.1, "bound_alpha": 1.5},
		{"h": 1, "theta": 0.1, "bound_alpha": 1},
		{"h": 0},
		{"h": 1, "top_k": -1},
	} {
		if err := env.doErr(http.StatusBadRequest, "POST", "/v1/graphs/g/screen", body, nil); err != nil {
			t.Errorf("%+v: %v", body, err)
		}
	}
	if n := env.srv.jobs.numJobs(); n != 0 {
		t.Fatalf("rejected requests created %d jobs", n)
	}
}

// TestWatchlistMonitorAPI drives a standing top-k watchlist through the
// REST surface: create carries the baseline ranking, mutations re-rank
// it, and the wire view round-trips the watchlist shape.
func TestWatchlistMonitorAPI(t *testing.T) {
	env := newTestEnv(t)
	ev := plannerEvents(t, env)

	type watchView struct {
		monitorView
	}
	var created watchView
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"id": "watch", "top_k": 2, "h": 1, "sample_size": 200, "seed": 11, "policy": "manual"},
		&created)
	if created.TopK != 2 || created.MinOccurrences != 1 || created.A != "" || created.B != "" {
		t.Fatalf("created view %+v, want top_k=2 min_occurrences=1 and no pair", created.monitorView)
	}
	if created.Last == nil || len(created.Last.Top) != 2 {
		t.Fatalf("baseline sample missing its ranked list: %+v", created.Last)
	}

	// The baseline ranking is the planned screen over the full
	// vocabulary at the same parameters.
	want, err := tesc.ScreenTopK(env.graph, ev, tesc.ScreenTopKOptions{
		ScreenOptions: tesc.ScreenOptions{H: 1, SampleSize: 200, Seed: 11, Workers: 1},
		K:             2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range created.Last.Top {
		w := want.Pairs[i]
		if got.A != w.A || got.B != w.B || got.Tau != w.Tau || got.Z != w.Z || got.P != w.P {
			t.Fatalf("baseline rank %d: %+v != direct %+v", i, got, w)
		}
	}
	if created.Last.Tau != created.Last.Top[0].Tau {
		t.Fatalf("sample head %v does not mirror rank 1 %v", created.Last.Tau, created.Last.Top[0].Tau)
	}

	// A mutation to an event no fixed pair names still invalidates the
	// watchlist; refresh re-ranks.
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"mid": {90, 91}}}, nil)
	var refreshed struct {
		Ran bool `json:"ran"`
		monitorView
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/monitors/watch/refresh", nil, &refreshed)
	if !refreshed.Ran {
		t.Fatal("refresh did not run despite a pending event delta")
	}
	if refreshed.Last == nil || len(refreshed.Last.Top) != 2 {
		t.Fatalf("re-ranked sample missing its ranked list: %+v", refreshed.Last)
	}

	// Watchlist shape errors are client errors.
	env.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/monitors",
		map[string]any{"top_k": 2, "a": "left", "h": 1}, nil)
	env.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "left", "b": "right", "min_occurrences": 2, "h": 1}, nil)
}
