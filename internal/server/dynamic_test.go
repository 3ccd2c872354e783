package server

import (
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"

	"tesc"
)

// newHTTPServer wraps a Server in an httptest listener, reusing the
// testEnv request helpers.
func newHTTPServer(t *testing.T, srv *Server) *testEnv {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &testEnv{srv: srv, ts: ts}
}

// TestConcurrentMutationsAndQueries is the torn-read witness for the
// dynamic-graph subsystem, run under -race in CI: one mutator streams
// edge deltas (with in-place index refresh) and event add/removes while
// query workers run index-backed correlations. Every worker asserts
// the single-epoch invariant — the index the cache hands out is bound
// to exactly the graph snapshot the worker bound to — and the
// index-checking samplers would reject any crossed version.
func TestConcurrentMutationsAndQueries(t *testing.T) {
	g := tesc.RandomCommunityGraph(4, 50, 6, 0.5, 7)
	r := NewRegistry()
	e, err := r.Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	var va, vb []int
	for v := 0; v < 20; v++ {
		va = append(va, v)
	}
	for v := 150; v < 170; v++ {
		vb = append(vb, v)
	}
	if err := e.AddEvents(map[string][]int{"a": va, "b": vb}); err != nil {
		t.Fatal(err)
	}
	cache := NewIndexCache(4)
	// Warm the cache so the mutator has an index to migrate.
	if _, err := cache.Get(e, e.Snapshot(), 2, 1); err != nil {
		t.Fatal(err)
	}

	const (
		workers          = 4
		queriesPerWorker = 30
	)
	var (
		stop      atomic.Bool
		mutations atomic.Int64
		mutWG     sync.WaitGroup
		workerWG  sync.WaitGroup
		// first closes once the edge mutator has landed a delta (or
		// given up): on a loaded scheduler the workers could otherwise
		// finish before the mutator ever ran.
		first     = make(chan struct{})
		firstOnce sync.Once
	)

	// Edge mutator: random single-edge flips, index refreshed in place.
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		defer firstOnce.Do(func() { close(first) })
		rng := rand.New(rand.NewPCG(21, 12))
		n := g.NumNodes()
		for !stop.Load() {
			c := tesc.EdgeChange{U: rng.IntN(n), V: rng.IntN(n), Insert: rng.IntN(2) == 0}
			if c.U == c.V {
				continue
			}
			_, _, err := e.MutateEdges([]tesc.EdgeChange{c}, func(old, next Snapshot, applied []tesc.EdgeChange) error {
				cache.Refresh(e, old, next, applied, 1)
				return nil
			})
			if err != nil {
				t.Errorf("mutate: %v", err)
				return
			}
			mutations.Add(1)
			firstOnce.Do(func() { close(first) })
		}
	}()

	// Event mutator: a third event flickers in and out of existence.
	mutWG.Add(1)
	go func() {
		defer mutWG.Done()
		for !stop.Load() {
			if err := e.AddEvents(map[string][]int{"c": {5, 6, 7}}); err != nil {
				t.Errorf("add events: %v", err)
				return
			}
			if err := e.RemoveEvents(map[string][]int{"c": nil}); err != nil {
				t.Errorf("remove events: %v", err)
				return
			}
		}
	}()

	<-first
	for w := 0; w < workers; w++ {
		workerWG.Add(1)
		go func(w int) {
			defer workerWG.Done()
			for q := 0; q < queriesPerWorker; q++ {
				snap := e.Snapshot()
				idx, err := cache.Get(e, snap, 2, 1)
				if err != nil {
					t.Errorf("worker %d: Get: %v", w, err)
					return
				}
				if !idx.BuiltFor(snap.Graph) {
					t.Errorf("worker %d: index is not bound to the worker's snapshot graph", w)
					return
				}
				a, err := storeOccurrences(snap.Store, "a")
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				b, err := storeOccurrences(snap.Store, "b")
				if err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
				// The importance sampler re-checks index/graph identity;
				// a torn epoch would surface as an error here.
				_, err = tesc.Correlation(snap.Graph, a, b, tesc.Options{
					H: 2, Method: tesc.Importance, Index: idx, SampleSize: 60, Seed: uint64(w*1000 + q + 1),
				})
				if err != nil {
					t.Errorf("worker %d query %d: %v", w, q, err)
					return
				}
			}
		}(w)
	}

	// Workers finish on their own; then the mutators are told to stop.
	workerWG.Wait()
	stop.Store(true)
	mutWG.Wait()

	if mutations.Load() == 0 {
		t.Error("mutator never ran; the test exercised nothing")
	}
	if cache.Refreshes() == 0 {
		t.Error("no cached index was ever migrated in place")
	}
}

// TestEndToEndEdgeMutation drives the full HTTP surface: register a
// graph, query it, mutate edges live, and verify (a) responses reflect
// the mutation, (b) the vicinity index was repaired in place rather
// than rebuilt (the index-build counter in /healthz stands still while
// the refresh counter moves), and (c) epochs advance exactly per
// effective mutation.
func TestEndToEndEdgeMutation(t *testing.T) {
	srv := New(Config{IndexCacheCapacity: 4})
	ts := newHTTPServer(t, srv)

	// Path 0-1-...-9 plus two isolated nodes 10, 11.
	ts.do(t, http.StatusCreated, "POST", "/v1/graphs", map[string]any{
		"name":      "g",
		"edge_list": "# nodes 12\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n",
	}, nil)
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/events", map[string]any{
		"events": map[string][]int{"a": {0, 1, 2}, "b": {7, 8, 9}},
	}, nil)

	// Baseline: exact enumeration sees population |V^1_{a∪b}| = 8, and
	// an importance query forces one index build.
	var cor struct {
		Population int     `json:"population"`
		Epoch      uint64  `json:"epoch"`
		Tau        float64 `json:"tau"`
	}
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "b", "h": 1, "sample_size": 50}, &cor)
	if cor.Population != 8 {
		t.Fatalf("baseline population = %d, want 8", cor.Population)
	}
	if cor.Epoch != 2 {
		t.Fatalf("baseline epoch = %d, want 2 (register + events)", cor.Epoch)
	}
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "b", "h": 2, "sample_size": 50, "method": "importance"}, nil)

	var health struct {
		Built      int64 `json:"index_built"`
		Refreshed  int64 `json:"index_refreshed"`
		Recomputed int64 `json:"index_nodes_recomputed"`
	}
	ts.do(t, http.StatusOK, "GET", "/healthz", nil, &health)
	if health.Built != 1 || health.Refreshed != 0 {
		t.Fatalf("after warmup: built=%d refreshed=%d, want 1/0", health.Built, health.Refreshed)
	}

	// Live mutation: hook the isolated node 10 to both communities and
	// cut the 4-5 bridge. One no-op insert rides along and is skipped.
	var mut struct {
		Epoch            uint64 `json:"epoch"`
		Edges            int64  `json:"edges"`
		Inserted         int    `json:"inserted"`
		Deleted          int    `json:"deleted"`
		Skipped          int    `json:"skipped"`
		IndexesRefreshed int    `json:"indexes_refreshed"`
		NodesRecomputed  int    `json:"nodes_recomputed"`
	}
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{
		"insert": [][2]int{{0, 10}, {9, 10}, {0, 1}},
		"delete": [][2]int{{4, 5}},
	}, &mut)
	if mut.Inserted != 2 || mut.Deleted != 1 || mut.Skipped != 1 {
		t.Fatalf("mutation counts = %d/%d/%d, want inserted 2, deleted 1, skipped 1", mut.Inserted, mut.Deleted, mut.Skipped)
	}
	if mut.Edges != 10 {
		t.Fatalf("edges after mutation = %d, want 10", mut.Edges)
	}
	if mut.Epoch != 3 {
		t.Fatalf("epoch after mutation = %d, want 3", mut.Epoch)
	}
	if mut.IndexesRefreshed != 1 || mut.NodesRecomputed == 0 {
		t.Fatalf("refresh stats = %d indexes / %d nodes, want the one cached index repaired", mut.IndexesRefreshed, mut.NodesRecomputed)
	}

	// The query path reflects the mutation: node 10 joined both 1-hop
	// vicinities, so the enumerated population grows to 9…
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "b", "h": 1, "sample_size": 50}, &cor)
	if cor.Population != 9 {
		t.Fatalf("post-mutation population = %d, want 9", cor.Population)
	}
	if cor.Epoch != 3 {
		t.Fatalf("post-mutation epoch = %d, want 3", cor.Epoch)
	}
	// …and the importance query runs against the repaired index: no new
	// build appears in the stats endpoint.
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "b", "h": 2, "sample_size": 50, "method": "importance"}, nil)
	ts.do(t, http.StatusOK, "GET", "/healthz", nil, &health)
	if health.Built != 1 {
		t.Fatalf("index_built after mutation+query = %d, want 1 (repair, not rebuild)", health.Built)
	}
	if health.Refreshed != 1 || health.Recomputed == 0 {
		t.Fatalf("index_refreshed=%d nodes_recomputed=%d, want 1/>0", health.Refreshed, health.Recomputed)
	}

	// An entirely no-op batch publishes nothing: the epoch stands still.
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{
		"insert": [][2]int{{0, 1}},
	}, &mut)
	if mut.Epoch != 3 || mut.Skipped != 1 || mut.IndexesRefreshed != 0 {
		t.Fatalf("no-op batch: epoch=%d skipped=%d refreshed=%d, want 3/1/0", mut.Epoch, mut.Skipped, mut.IndexesRefreshed)
	}

	// Malformed mutations are rejected whole.
	ts.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/edges", map[string]any{
		"insert": [][2]int{{0, 99}},
	}, nil)
	ts.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/edges", map[string]any{}, nil)
	ts.do(t, http.StatusNotFound, "POST", "/v1/graphs/nope/edges", map[string]any{
		"insert": [][2]int{{0, 1}},
	}, nil)
}

// TestEndToEndEventMutation exercises live event add/remove over HTTP.
func TestEndToEndEventMutation(t *testing.T) {
	srv := New(Config{IndexCacheCapacity: 4})
	ts := newHTTPServer(t, srv)

	ts.do(t, http.StatusCreated, "POST", "/v1/graphs", map[string]any{
		"name": "g", "edge_list": "# nodes 6\n0 1\n1 2\n2 3\n3 4\n4 5\n",
	}, nil)
	var resp struct {
		Events int    `json:"events"`
		Epoch  uint64 `json:"epoch"`
	}
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/events", map[string]any{
		"events": map[string][]int{"a": {0, 1}, "b": {4, 5}, "junk": {2}},
	}, &resp)
	if resp.Events != 3 || resp.Epoch != 2 {
		t.Fatalf("after add: events=%d epoch=%d, want 3/2", resp.Events, resp.Epoch)
	}

	// Occurrence-level removal and addition in one mutation.
	ts.do(t, http.StatusOK, "POST", "/v1/graphs/g/events", map[string]any{
		"events": map[string][]int{"a": {2}},
		"remove": map[string][]int{"a": {0}},
	}, &resp)
	if resp.Events != 3 || resp.Epoch != 3 {
		t.Fatalf("after move: events=%d epoch=%d, want 3/3", resp.Events, resp.Epoch)
	}

	// Whole-event removal via DELETE.
	ts.do(t, http.StatusOK, "DELETE", "/v1/graphs/g/events/junk", nil, &resp)
	if resp.Events != 2 || resp.Epoch != 4 {
		t.Fatalf("after delete: events=%d epoch=%d, want 2/4", resp.Events, resp.Epoch)
	}
	ts.do(t, http.StatusNotFound, "DELETE", "/v1/graphs/g/events/junk", nil, nil)
	ts.do(t, http.StatusNotFound, "POST", "/v1/graphs/g/events", map[string]any{
		"remove": map[string][]int{"ghost": nil},
	}, nil)
	// Removing an absent occurrence is rejected whole: nothing mutates.
	ts.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/events", map[string]any{
		"remove": map[string][]int{"a": {5}},
	}, nil)
	var info struct {
		Events int    `json:"events"`
		Epoch  uint64 `json:"epoch"`
	}
	ts.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info)
	if info.Events != 2 || info.Epoch != 4 {
		t.Fatalf("after rejected batch: events=%d epoch=%d, want unchanged 2/4", info.Events, info.Epoch)
	}

	// The removed event is gone from the query path.
	ts.do(t, http.StatusNotFound, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "junk", "h": 1}, nil)
}
