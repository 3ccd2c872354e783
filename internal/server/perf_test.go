package server

import (
	"net/http"
	"testing"
	"time"

	"tesc/internal/core"
)

// TestHealthzTraversalCounters is the serving-tier acceptance check of
// the PR 4 hot-path work: correlate queries advance bfs_runs, a
// screening sweep advances it by its deduplicated traversal count, and
// density_memo_hits becomes visible — the operator's live view of the
// memo's effect.
func TestHealthzTraversalCounters(t *testing.T) {
	env := newTestEnv(t)

	var h0 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h0)
	if h0["bfs_runs"].(float64) != 0 || h0["density_memo_hits"].(float64) != 0 {
		t.Fatalf("fresh healthz counters non-zero: %+v", h0)
	}

	var cres correlateResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 60}, &cres)
	if cres.DensityBFS == 0 {
		t.Fatal("correlate reported zero density traversals")
	}
	var h1 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h1)
	if got := int64(h1["bfs_runs"].(float64)); got != cres.DensityBFS {
		t.Fatalf("bfs_runs = %d after one correlate, want %d", got, cres.DensityBFS)
	}

	// A third event forces a real multi-pair sweep; its samples overlap
	// across pairs, so the memo must register hits and the traversal
	// count must come in under pairs × sample size.
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"mid": {80, 81, 82, 83, 84, 85}}}, nil)
	var sres screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 100}, &sres)
	var job JobView
	waitForJob(t, env, sres.JobID, &job)
	if job.Result == nil {
		t.Fatalf("job has no result: %+v", job)
	}
	if job.Result.MemoHits == 0 {
		t.Fatal("screen job reported zero memo hits on overlapping events")
	}
	if job.Result.BFSRuns == 0 || job.Result.BFSRuns >= int64(job.Result.Tested)*100 {
		t.Fatalf("screen BFSRuns = %d, want deduplicated (0 < runs < %d)",
			job.Result.BFSRuns, job.Result.Tested*100)
	}
	var h2 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h2)
	wantRuns := cres.DensityBFS + job.Result.BFSRuns
	if got := int64(h2["bfs_runs"].(float64)); got != wantRuns {
		t.Fatalf("bfs_runs = %d, want %d (correlate + sweep)", got, wantRuns)
	}
	if got := int64(h2["density_memo_hits"].(float64)); got != job.Result.MemoHits {
		t.Fatalf("density_memo_hits = %d, want %d", got, job.Result.MemoHits)
	}
}

// TestEnginePoolPerGraphVersion pins the pool contract: one pool per
// graph version, a fresh pool after an edge mutation, and a stale
// snapshot keeps its own version's pool.
func TestEnginePoolPerGraphVersion(t *testing.T) {
	env := newTestEnv(t)
	e, ok := env.srv.Registry().Get("g")
	if !ok {
		t.Fatal("graph not registered")
	}
	snap1 := e.Snapshot()
	p1 := e.EnginePool(snap1)
	if p1 != e.EnginePool(snap1) {
		t.Fatal("same snapshot did not reuse the pool")
	}

	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
		map[string]any{"insert": [][2]int{{0, 199}}}, nil)
	snap2 := e.Snapshot()
	if snap2.GraphVersion == snap1.GraphVersion {
		t.Fatal("mutation did not bump the graph version")
	}
	p2 := e.EnginePool(snap2)
	if p2 == p1 {
		t.Fatal("pool survived a graph mutation")
	}
	// A query still holding the old snapshot keeps its own version's
	// pool, never the successor's.
	if stale := e.EnginePool(snap1); stale != p1 || stale == p2 {
		t.Fatal("stale snapshot was not handed its own version's pool")
	}
	if e.EnginePool(snap2) != p2 {
		t.Fatal("stale snapshot displaced the current pool")
	}
}

// waitForJob polls the job endpoint until it leaves the running state.
func waitForJob(t *testing.T, env *testEnv, id string, out *JobView) {
	t.Helper()
	for i := 0; i < 500; i++ {
		env.do(t, http.StatusOK, "GET", "/v1/jobs/"+id, nil, out)
		if out.Status != JobRunning {
			if out.Status != JobDone {
				t.Fatalf("job failed: %+v", out)
			}
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

// TestCorrelateRejectsBadOptionsEarly: an out-of-range alpha,
// sample_size or h is a 400 decided before the flight join and the
// index fetch, for the index-backed methods too — no index is built or
// cached and no traversal runs.
func TestCorrelateRejectsBadOptionsEarly(t *testing.T) {
	env := newTestEnv(t)
	var h0 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h0)
	for _, method := range []string{"importance", "rejection"} {
		for _, bad := range []map[string]any{
			{"alpha": 1.5},
			{"alpha": -0.1},
			{"sample_size": 1},
			{"h": 0},
		} {
			body := map[string]any{"a": "left", "b": "right", "h": 2, "method": method}
			for k, v := range bad {
				body[k] = v
			}
			if err := env.doErr(http.StatusBadRequest, "POST", "/v1/graphs/g/correlate", body, nil); err != nil {
				t.Errorf("%+v: %v", body, err)
			}
		}
	}
	var h1 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h1)
	for _, k := range []string{"index_built", "bfs_runs"} {
		if h1[k] != h0[k] {
			t.Fatalf("%s moved from %v to %v on refused requests", k, h0[k], h1[k])
		}
	}
	if n := env.srv.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d indexes after refused requests, want 0", n)
	}
}

// TestSpearmanImportanceRefusedEarly: Spearman's ρ over an importance
// sample is refused with 422 before the vicinity index is fetched or
// built and before any traversal, with the library's message.
func TestSpearmanImportanceRefusedEarly(t *testing.T) {
	env := newTestEnv(t)
	var h0 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h0)

	var e struct{ Code, Reason string }
	env.do(t, http.StatusUnprocessableEntity, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 2, "method": "importance", "use_spearman": true}, &e)
	if e.Code != "unprocessable" || e.Reason != core.ErrSpearmanWeighted.Error() {
		t.Fatalf("error = %+v, want unprocessable %q", e, core.ErrSpearmanWeighted)
	}
	var h1 map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h1)
	for _, k := range []string{"index_built", "bfs_runs"} {
		if h1[k] != h0[k] {
			t.Fatalf("%s moved from %v to %v on a refused request", k, h0[k], h1[k])
		}
	}
	if n := env.srv.Cache().Len(); n != 0 {
		t.Fatalf("cache holds %d indexes after a refused request, want 0", n)
	}
}
