package client

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"tesc/api"
	"tesc/internal/server"
)

// newEnv spins up a real in-process tescd and a client against it.
func newEnv(t *testing.T) (*Client, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return New(ts.URL), ts
}

const testEdges = "0 1\n1 2\n2 3\n3 0\n0 2\n"

func TestClientRoundTrip(t *testing.T) {
	c, _ := newEnv(t)
	ctx := context.Background()

	gi, err := c.RegisterGraph(ctx, api.RegisterGraphRequest{Name: "g", EdgeList: testEdges})
	if err != nil {
		t.Fatalf("RegisterGraph: %v", err)
	}
	if gi.Name != "g" || gi.Nodes != 4 {
		t.Fatalf("RegisterGraph = %+v", gi)
	}

	// Besides a and b, events whose names need escaping in a path.
	escaped := []string{"k?v", "x/y", "c#d", "50%", "a b"}
	events := map[string][]int{"a": {0, 1}, "b": {2, 3}}
	for _, name := range escaped {
		events[name] = []int{0}
	}
	if _, err := c.RegisterEvents(ctx, "g", api.RegisterEventsRequest{Events: events}); err != nil {
		t.Fatalf("RegisterEvents: %v", err)
	}
	for i, name := range escaped {
		del, err := c.DeleteEvent(ctx, "g", name)
		if err != nil {
			t.Fatalf("DeleteEvent(%q): %v", name, err)
		}
		if want := 2 + len(escaped) - i - 1; del.Events != want {
			t.Fatalf("DeleteEvent(%q) left %d events, want %d", name, del.Events, want)
		}
	}
	var gone *api.Error
	if _, err := c.DeleteEvent(ctx, "g", "k?v"); !errors.As(err, &gone) || gone.Code != api.CodeNotFound {
		t.Fatalf("DeleteEvent of a deleted event = %v, want %s", err, api.CodeNotFound)
	}

	list, err := c.ListGraphs(ctx)
	if err != nil || len(list) != 1 {
		t.Fatalf("ListGraphs = %v, %v", list, err)
	}

	res, err := c.Correlate(ctx, "g", api.CorrelateRequest{A: "a", B: "b", H: 2, SampleSize: 50, Seed: 7})
	if err != nil {
		t.Fatalf("Correlate: %v", err)
	}
	if res.N == 0 || res.Verdict == "" {
		t.Fatalf("Correlate = %+v", res)
	}

	mut, err := c.MutateEdges(ctx, "g", api.MutateEdgesRequest{Insert: [][2]int{{1, 3}}})
	if err != nil || mut.Inserted != 1 {
		t.Fatalf("MutateEdges = %+v, %v", mut, err)
	}

	acc, err := c.Screen(ctx, "g", api.ScreenRequest{H: 2, SampleSize: 30, Seed: 1})
	if err != nil || acc.JobID == "" {
		t.Fatalf("Screen = %+v, %v", acc, err)
	}
	jobCtx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	jv, err := c.WaitJob(jobCtx, acc.JobID, 10*time.Millisecond)
	if err != nil {
		t.Fatalf("WaitJob: %v", err)
	}
	if jv.Status != api.JobDone {
		t.Fatalf("job finished as %s (%s)", jv.Status, jv.Error)
	}

	mon, err := c.CreateMonitor(ctx, "g", api.CreateMonitorRequest{A: "a", B: "b", H: 2, SampleSize: 30})
	if err != nil {
		t.Fatalf("CreateMonitor: %v", err)
	}
	det, err := c.GetMonitor(ctx, "g", mon.ID)
	if err != nil || det.ID != mon.ID {
		t.Fatalf("GetMonitor = %+v, %v", det, err)
	}
	mons, err := c.ListMonitors(ctx, "g")
	if err != nil || len(mons) != 1 || mons[0].ID != mon.ID {
		t.Fatalf("ListMonitors = %+v, %v", mons, err)
	}
	if _, err := c.RefreshMonitor(ctx, "g", mon.ID, true); err != nil {
		t.Fatalf("RefreshMonitor: %v", err)
	}
	if err := c.DeleteMonitor(ctx, "g", mon.ID); err != nil {
		t.Fatalf("DeleteMonitor: %v", err)
	}
	if mons, err := c.ListMonitors(ctx, "g"); err != nil || len(mons) != 0 {
		t.Fatalf("ListMonitors after delete = %+v, %v", mons, err)
	}

	h, err := c.Health(ctx)
	if err != nil || h.Status != "ok" || h.Graphs != 1 {
		t.Fatalf("Health = %+v, %v", h, err)
	}

	if err := c.DeleteGraph(ctx, "g"); err != nil {
		t.Fatalf("DeleteGraph: %v", err)
	}
}

func TestClientTypedErrors(t *testing.T) {
	c, _ := newEnv(t)
	ctx := context.Background()

	_, err := c.GetGraph(ctx, "nope")
	var e *api.Error
	if !errors.As(err, &e) {
		t.Fatalf("GetGraph(nope) error is %T, want *api.Error", err)
	}
	if e.Code != api.CodeNotFound || e.Status != http.StatusNotFound || e.Reason == "" {
		t.Fatalf("GetGraph(nope) = %+v", e)
	}

	// Invalid names are rejected client-side, before any request.
	_, err = c.GetGraph(ctx, "a b")
	if !errors.As(err, &e) || e.Code != api.CodeInvalidName {
		t.Fatalf("GetGraph(\"a b\") = %v, want invalid_name", err)
	}
	_, err = c.RegisterGraph(ctx, api.RegisterGraphRequest{Name: "a/b", EdgeList: testEdges})
	if !errors.As(err, &e) || e.Code != api.CodeInvalidName {
		t.Fatalf("RegisterGraph(\"a/b\") = %v, want invalid_name", err)
	}

	// A duplicate registration surfaces the server's typed conflict.
	if _, err := c.RegisterGraph(ctx, api.RegisterGraphRequest{Name: "g", EdgeList: testEdges}); err != nil {
		t.Fatal(err)
	}
	_, err = c.RegisterGraph(ctx, api.RegisterGraphRequest{Name: "g", EdgeList: testEdges})
	if !errors.As(err, &e) || e.Code != api.CodeConflict || e.Retryable() {
		t.Fatalf("duplicate register = %v, want non-retryable conflict", err)
	}
}

func TestClientDeadlineHeader(t *testing.T) {
	var gotTimeout, gotTenant string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotTimeout = r.Header.Get("X-Tesc-Timeout-Ms")
		gotTenant = r.Header.Get("X-Tesc-Tenant")
		w.Write([]byte("{}"))
	}))
	defer ts.Close()

	c := New(ts.URL, WithTenant("acme"))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := c.Health(ctx); err != nil {
		t.Fatal(err)
	}
	if gotTenant != "acme" {
		t.Fatalf("tenant header = %q", gotTenant)
	}
	if gotTimeout == "" {
		t.Fatal("context deadline did not become the timeout header")
	}
	// ~30s minus scheduling slack.
	if gotTimeout < "29000" || len(gotTimeout) != 5 {
		t.Fatalf("timeout header = %q, want ~30000", gotTimeout)
	}

	// Without a deadline the header stays off — the server applies its
	// own default budget.
	if _, err := c.Health(context.Background()); err != nil {
		t.Fatal(err)
	}
	if gotTimeout != "" {
		t.Fatalf("deadline-free request carried timeout header %q", gotTimeout)
	}
}

func TestClientDecodeErrorFallback(t *testing.T) {
	// A proxy answering outside the envelope still yields a typed error.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "bad gateway", http.StatusBadGateway)
	}))
	defer ts.Close()

	_, err := New(ts.URL).Health(context.Background())
	var e *api.Error
	if !errors.As(err, &e) {
		t.Fatalf("error is %T, want *api.Error", err)
	}
	if e.Status != http.StatusBadGateway || e.Code != api.CodeUnavailable || !strings.Contains(e.Reason, "bad gateway") {
		t.Fatalf("fallback error = %+v", e)
	}
}

func TestClientForwardIsByteTransparent(t *testing.T) {
	c, ts := newEnv(t)
	ctx := context.Background()
	if _, err := c.RegisterGraph(ctx, api.RegisterGraphRequest{Name: "g", EdgeList: testEdges}); err != nil {
		t.Fatal(err)
	}

	// Direct GET via plain HTTP.
	direct, err := http.Get(ts.URL + "/v1/graphs/g")
	if err != nil {
		t.Fatal(err)
	}
	directBody, _ := io.ReadAll(direct.Body)
	direct.Body.Close()

	// The same request through Forward must produce identical bytes.
	resp, err := c.Forward(ctx, http.MethodGet, "/v1/graphs/g", http.Header{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	fwdBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(fwdBody) != string(directBody) {
		t.Fatalf("Forward body %q != direct body %q", fwdBody, directBody)
	}
	if resp.StatusCode != direct.StatusCode {
		t.Fatalf("Forward status %d != direct %d", resp.StatusCode, direct.StatusCode)
	}

	// Errors forward transparently too: the envelope bytes come back
	// unreencoded.
	resp, err = c.Forward(ctx, http.MethodGet, "/v1/graphs/nope", http.Header{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound || !strings.Contains(string(body), `"code":"not_found"`) {
		t.Fatalf("forwarded error = %d %s", resp.StatusCode, body)
	}
}
