package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"reflect"
	"sync"
	"testing"
	"time"

	"tesc"
)

// testEnv is a running service plus the ground-truth inputs the HTTP
// requests are checked against. Requests reach the service through an
// in-process hop, not a socket.
type testEnv struct {
	srv    *Server
	hc     *http.Client
	graph  *tesc.Graph
	va, vb []int
}

// envURL is the base URL of every testEnv request; the hop ignores it.
const envURL = "http://tescd"

// serve wraps srv in a testEnv whose client calls srv.Handler() in
// process.
func serve(srv *Server) *testEnv {
	return &testEnv{srv: srv, hc: &http.Client{Transport: handlerHop{srv.Handler()}}}
}

// newTestEnv registers the standard graph and events on an in-memory
// server. Two well-separated communities plus sparse bridges: event
// "left" lives in the first community, "right" in the last, so the
// planted structure is strongly assortative and the verdicts are
// stable.
func newTestEnv(t *testing.T) *testEnv {
	t.Helper()
	return newOverloadEnv(t, Config{})
}

// do issues one JSON request and decodes the response into out,
// failing the test unless the status matches.
func (env *testEnv) do(t *testing.T, wantStatus int, method, path string, body, out any) {
	t.Helper()
	if err := env.doErr(wantStatus, method, path, body, out); err != nil {
		t.Fatal(err)
	}
}

func (env *testEnv) doErr(wantStatus int, method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, envURL+path, rd)
	if err != nil {
		return err
	}
	resp, err := env.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		return fmt.Errorf("%s %s = %d, want %d (body: %s)", method, path, resp.StatusCode, wantStatus, raw)
	}
	if out != nil {
		if err := json.Unmarshal(raw, out); err != nil {
			return fmt.Errorf("%s %s: decoding %q: %w", method, path, raw, err)
		}
	}
	return nil
}

// TestEndToEndConcurrentCorrelate is the acceptance test of the
// tentpole: register a graph and events, fire concurrent importance-
// sampling correlate requests sharing one cached vicinity index, and
// check (a) every response matches the direct tesc.Correlation call
// and (b) the index was built exactly once.
func TestEndToEndConcurrentCorrelate(t *testing.T) {
	env := newTestEnv(t)
	const h, sampleSize, seed = 2, 300, 7

	idx, err := env.graph.BuildVicinityIndex(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tesc.Correlation(env.graph, env.va, env.vb, tesc.Options{
		H: h, SampleSize: sampleSize, Method: tesc.Importance, Index: idx, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}

	req := map[string]any{
		"a": "left", "b": "right",
		"h": h, "sample_size": sampleSize, "method": "importance", "seed": seed,
	}
	const clients = 16
	var wg sync.WaitGroup
	responses := make([]correlateResponse, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = env.doErr(http.StatusOK, "POST", "/v1/graphs/g/correlate", req, &responses[i])
		}(i)
	}
	wg.Wait()

	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		got := responses[i]
		if got.Tau != want.Tau || got.Z != want.Z || got.P != want.P ||
			got.Verdict != want.Verdict || got.N != want.N || got.Sampler != want.Sampler {
			t.Fatalf("client %d: response %+v does not match direct Correlation result %+v", i, got, want)
		}
	}
	if got := env.srv.Cache().Builds(); got != 1 {
		t.Fatalf("vicinity index built %d times for %d concurrent queries, want 1", got, clients)
	}

	// One more request: a pure cache hit.
	var again correlateResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", req, &again)
	if got := env.srv.Cache().Builds(); got != 1 {
		t.Fatalf("vicinity index built %d times after warm query, want 1 (cache hit expected)", got)
	}
	if again.Tau != want.Tau {
		t.Fatalf("warm query tau %v != %v", again.Tau, want.Tau)
	}
}

// TestCorrelateMethodsAndAdHocNodes exercises the non-index samplers
// and inline node lists against direct library calls.
func TestCorrelateMethodsAndAdHocNodes(t *testing.T) {
	env := newTestEnv(t)
	want, err := tesc.Correlation(env.graph, env.va, env.vb, tesc.Options{H: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	var got correlateResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"nodes_a": env.va, "nodes_b": env.vb, "h": 1, "seed": 3}, &got)
	if got.Tau != want.Tau || got.Z != want.Z || got.Verdict != want.Verdict {
		t.Fatalf("ad-hoc batch-bfs response %+v != direct %+v", got, want)
	}
	if got.Sampler != "batch-bfs" {
		t.Fatalf("default sampler = %q, want batch-bfs", got.Sampler)
	}

	var wg correlateResponse
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "method": "whole-graph", "seed": 3}, &wg)
	if wg.Sampler != "whole-graph" {
		t.Fatalf("sampler = %q, want whole-graph", wg.Sampler)
	}
	if env.srv.Cache().Builds() != 0 {
		t.Fatal("non-index methods must not build vicinity indexes")
	}
}

// TestScreenJobLifecycle runs an asynchronous screening sweep and
// compares the polled result with the direct tesc.Screen call.
func TestScreenJobLifecycle(t *testing.T) {
	env := newTestEnv(t)
	// Two more events make 4 events → 6 pairs.
	extra := map[string][]int{
		"mid":    {80, 81, 82, 83, 84, 85, 86, 87},
		"spread": {0, 40, 80, 120, 160, 199},
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events", map[string]any{"events": extra}, nil)

	ev := tesc.EventSet{"left": env.va, "right": env.vb, "mid": extra["mid"], "spread": extra["spread"]}
	want, err := tesc.Screen(env.graph, ev, tesc.ScreenOptions{H: 1, SampleSize: 200, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}

	var accepted screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 200, "seed": 11}, &accepted)
	if accepted.JobID == "" {
		t.Fatal("empty job_id")
	}

	var view JobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		env.do(t, http.StatusOK, "GET", "/v1/jobs/"+accepted.JobID, nil, &view)
		if view.Status == JobDone || view.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s (progress %d/%d)", view.Status, view.Done, view.Total)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if view.Status != JobDone {
		t.Fatalf("job failed: %s", view.Error)
	}
	if view.Done != view.Total || view.Total != 6 {
		t.Fatalf("progress = %d/%d, want 6/6", view.Done, view.Total)
	}
	if view.Result == nil {
		t.Fatal("done job has no result")
	}
	if view.Result.Tested != want.Tested || view.Result.Rejected != want.Rejected {
		t.Fatalf("job result tested/rejected = %d/%d, want %d/%d",
			view.Result.Tested, view.Result.Rejected, want.Tested, want.Rejected)
	}
	if len(view.Result.Pairs) != len(want.Pairs) {
		t.Fatalf("job returned %d pairs, want %d", len(view.Result.Pairs), len(want.Pairs))
	}
	for i, p := range view.Result.Pairs {
		w := want.Pairs[i]
		got := ScreenedPairView{A: p.A, B: p.B, OccA: p.OccA, OccB: p.OccB,
			Tau: p.Tau, Z: p.Z, P: p.P, AdjP: p.AdjP, Significant: p.Significant, Skipped: p.Skipped}
		exp := ScreenedPairView{A: w.A, B: w.B, OccA: w.OccA, OccB: w.OccB,
			Tau: w.Tau, Z: w.Z, P: w.P, AdjP: w.AdjP, Significant: w.Significant, Skipped: w.Skipped}
		if !reflect.DeepEqual(got, exp) {
			t.Fatalf("pair %d: %+v != direct %+v", i, got, exp)
		}
	}
}

// TestGraphLifecycleAndErrors covers registration conflicts, listing,
// deletion with cache eviction, and the API's error codes.
func TestGraphLifecycleAndErrors(t *testing.T) {
	env := newTestEnv(t)

	var infos []graphInfo
	env.do(t, http.StatusOK, "GET", "/v1/graphs", nil, &infos)
	if len(infos) != 1 || infos[0].Name != "g" || infos[0].Nodes != 200 || infos[0].Events != 2 {
		t.Fatalf("graph listing = %+v", infos)
	}

	// Duplicate registration conflicts.
	env.do(t, http.StatusConflict, "POST", "/v1/graphs",
		map[string]any{"name": "g", "edge_list": "0 1\n"}, nil)
	// Unknown graph, event, job, and malformed requests.
	env.do(t, http.StatusNotFound, "POST", "/v1/graphs/nope/correlate",
		map[string]any{"a": "x", "b": "y", "h": 1}, nil)
	env.do(t, http.StatusNotFound, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "nope", "h": 1}, nil)
	env.do(t, http.StatusNotFound, "GET", "/v1/jobs/job-999", nil, nil)
	env.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right"}, nil) // missing h
	env.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "method": "magic"}, nil)
	env.do(t, http.StatusBadRequest, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"bad": {9999}}}, nil) // node out of range
	env.do(t, http.StatusBadRequest, "POST", "/v1/graphs",
		map[string]any{"name": "both", "edge_list": "0 1\n", "path": "/tmp/x"}, nil)

	// Importance sampling builds and caches an index; deleting the
	// graph evicts it.
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 1, "method": "importance"}, nil)
	if env.srv.Cache().Len() != 1 {
		t.Fatalf("cache Len = %d, want 1", env.srv.Cache().Len())
	}
	env.do(t, http.StatusNoContent, "DELETE", "/v1/graphs/g", nil, nil)
	if env.srv.Cache().Len() != 0 {
		t.Fatalf("cache Len after delete = %d, want 0 (indexes must be evicted with the graph)", env.srv.Cache().Len())
	}
	env.do(t, http.StatusNotFound, "GET", "/v1/graphs/g", nil, nil)
	env.do(t, http.StatusNotFound, "DELETE", "/v1/graphs/g", nil, nil)

	// Health endpoint stays up throughout.
	var health map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &health)
	if health["status"] != "ok" {
		t.Fatalf("healthz = %+v", health)
	}
}

// TestScreenNeedsTwoEvents guards the 422 path.
func TestScreenNeedsTwoEvents(t *testing.T) {
	g, err := tesc.BuildGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	env := serve(New(Config{}))
	env.graph = g
	env.do(t, http.StatusCreated, "POST", "/v1/graphs",
		map[string]any{"name": "tiny", "edge_list": "# nodes 4\n0 1\n1 2\n2 3\n"}, nil)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/tiny/events",
		map[string]any{"events": map[string][]int{"only": {0, 1}}}, nil)
	env.do(t, http.StatusUnprocessableEntity, "POST", "/v1/graphs/tiny/screen",
		map[string]any{"h": 1}, nil)
}

// Both listeners (tescd's ListenAndServe and the coordinator) come from
// NewHTTPServer, so both bound header reads: a connection that never
// finishes its headers is closed instead of held forever. The drive
// below shortens the timeout on a loopback listener; the pin keeps the
// production value set.
func TestHTTPServerBoundsHeaderReads(t *testing.T) {
	hs := NewHTTPServer("127.0.0.1:0", http.NotFoundHandler())
	if hs.ReadHeaderTimeout != ReadHeaderTimeout || ReadHeaderTimeout <= 0 || ReadHeaderTimeout > time.Minute {
		t.Fatalf("ReadHeaderTimeout = %v (constant %v), want a bound in (0, 1m]", hs.ReadHeaderTimeout, ReadHeaderTimeout)
	}
	hs.ReadHeaderTimeout = 50 * time.Millisecond
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	defer hs.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "GET / HTTP/1.1\r\nHost: tescd\r\n"); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	start := time.Now()
	_, err = io.ReadAll(conn)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("the server held a header-less connection for %v", time.Since(start))
	}
}
