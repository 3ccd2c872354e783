package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"tesc/api"
	"tesc/client"
	"tesc/internal/replica"
	"tesc/internal/server"
)

// clusterNode is one in-process tescd with a real HTTP listener.
type clusterNode struct {
	srv *server.Server
	ts  *httptest.Server
	dir string
}

func newClusterNode(t *testing.T, readOnly bool) *clusterNode {
	t.Helper()
	dir := t.TempDir()
	srv := server.New(server.Config{
		IndexCacheCapacity: 4,
		DataDir:            dir,
		CheckpointDelay:    time.Hour,
		ReadOnly:           readOnly,
	})
	if _, err := srv.LoadData(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(srv.Close)
	return &clusterNode{srv: srv, ts: ts, dir: dir}
}

// clusterMember is an owner node plus one durable replica following it
// over the production HTTP wire path.
type clusterMember struct {
	name    string
	owner   *clusterNode
	replica *clusterNode
	fol     *replica.Follower
}

func newClusterMember(t *testing.T, name string) *clusterMember {
	t.Helper()
	owner := newClusterNode(t, false)
	rep := newClusterNode(t, true)
	fol := replica.New(&replica.HTTPTransport{Base: owner.ts.URL}, rep.srv.FollowerState(), nil)
	rep.srv.AttachFollower(fol)
	return &clusterMember{name: name, owner: owner, replica: rep, fol: fol}
}

func (m *clusterMember) converge(t *testing.T) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.fol.CatchUp(ctx, time.Millisecond); err != nil {
		t.Fatalf("member %s replica catch-up: %v", m.name, err)
	}
}

// doRaw issues a request and returns the status plus the raw body —
// raw, because the e2e contract is byte-level response equivalence.
func doRaw(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

// normalize re-encodes a JSON body canonically with wall-clock fields
// ("created", "finished", "elapsed_ms") zeroed — the only response
// fields that legitimately differ between a cluster and the oracle.
func normalize(t *testing.T, raw []byte) string {
	t.Helper()
	var v any
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("normalize %q: %v", raw, err)
	}
	var scrub func(any)
	scrub = func(x any) {
		switch n := x.(type) {
		case map[string]any:
			for _, k := range []string{"created", "finished", "elapsed_ms"} {
				if _, ok := n[k]; ok {
					n[k] = nil
				}
			}
			for _, vv := range n {
				scrub(vv)
			}
		case []any:
			for _, vv := range n {
				scrub(vv)
			}
		}
	}
	scrub(v)
	out, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// sameAs asserts a cluster request and the identical oracle request
// produce the same status and byte-equivalent bodies.
func sameAs(t *testing.T, method, path string, body any, clusterURL, oracleURL string, wantCode int) {
	t.Helper()
	cCode, cRaw := doRaw(t, method, clusterURL+path, body)
	oCode, oRaw := doRaw(t, method, oracleURL+path, body)
	if cCode != wantCode || oCode != wantCode {
		t.Fatalf("%s %s: cluster %d, oracle %d, want %d\ncluster: %s\noracle: %s",
			method, path, cCode, oCode, wantCode, cRaw, oRaw)
	}
	if len(cRaw) == 0 && len(oRaw) == 0 {
		return
	}
	if bytes.Equal(cRaw, oRaw) {
		return
	}
	if c, o := normalize(t, cRaw), normalize(t, oRaw); c != o {
		t.Fatalf("%s %s diverged from oracle:\ncluster: %s\noracle:  %s", method, path, c, o)
	}
}

const nGraphs = 32

func graphName(i int) string { return fmt.Sprintf("g%02d", i) }

// edgeList builds a deterministic per-graph topology: a ring with
// index-dependent chords, so graphs differ from each other.
func edgeList(i int) string {
	n := 10 + i%5
	var b bytes.Buffer
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "%d %d\n", v, (v+1)%n)
	}
	fmt.Fprintf(&b, "0 %d\n", 2+i%4)
	fmt.Fprintf(&b, "1 %d\n", 4+i%3)
	return b.String()
}

func eventsFor(i int) map[string][]int {
	n := 10 + i%5
	return map[string][]int{
		"a": {0, 1, 2 + i%3},
		"b": {n - 1, n - 2, n - 3},
	}
}

// TestClusterEndToEnd is the acceptance e2e: 32 graphs through a
// 3-member coordinator, every response byte-equivalent to a single
// node holding all of them; an owner dies and reads keep answering
// from its replica; a fresh node rejoins via the snapshot+WAL handoff
// and is flipped in as the new owner.
func TestClusterEndToEnd(t *testing.T) {
	members := []*clusterMember{
		newClusterMember(t, "n1"),
		newClusterMember(t, "n2"),
		newClusterMember(t, "n3"),
	}
	top := Topology{}
	for _, m := range members {
		top.Members = append(top.Members, Member{
			Name: m.name, URL: m.owner.ts.URL, Replicas: []string{m.replica.ts.URL},
		})
	}
	coord, err := NewCoordinator(Config{Topology: top, FailThreshold: 1, ProbeInterval: 500 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	oracle := server.New(server.Config{IndexCacheCapacity: 64})
	ots := httptest.NewServer(oracle.Handler())
	t.Cleanup(ots.Close)

	ctx := context.Background()

	// Register, populate and mutate every graph through the
	// coordinator and the oracle in lockstep, comparing each response.
	for i := 0; i < nGraphs; i++ {
		g := graphName(i)
		sameAs(t, "POST", "/v1/graphs",
			api.RegisterGraphRequest{Name: g, EdgeList: edgeList(i)},
			cts.URL, ots.URL, http.StatusCreated)
		sameAs(t, "POST", "/v1/graphs/"+g+"/events",
			api.RegisterEventsRequest{Events: eventsFor(i)},
			cts.URL, ots.URL, http.StatusOK)
		sameAs(t, "POST", "/v1/graphs/"+g+"/edges",
			api.MutateEdgesRequest{Insert: [][2]int{{0, 5}, {1, 6}}},
			cts.URL, ots.URL, http.StatusOK)
	}

	// Placement must cover every member, and the coordinator's healthz
	// must account for all graphs.
	code, raw := doRaw(t, "GET", cts.URL+"/healthz", nil)
	if code != http.StatusOK {
		t.Fatalf("healthz: %d: %s", code, raw)
	}
	var h api.Health
	if err := json.Unmarshal(raw, &h); err != nil || h.Cluster == nil {
		t.Fatalf("healthz: %v, cluster=%v", err, h.Cluster)
	}
	total := 0
	for _, mh := range h.Cluster.Members {
		if mh.Graphs == 0 {
			t.Fatalf("member %s owns no graphs — placement did not spread: %s", mh.Name, raw)
		}
		total += mh.Graphs
	}
	if total != nGraphs || h.Cluster.Graphs != nGraphs {
		t.Fatalf("healthz accounts %d/%d graphs, want %d", total, h.Cluster.Graphs, nGraphs)
	}

	// Every read answers byte-identically to the oracle.
	correlate := func(i int) (string, any) {
		return "/v1/graphs/" + graphName(i) + "/correlate", api.CorrelateRequest{
			A: "a", B: "b", H: 2, SampleSize: 64, Seed: 42,
		}
	}
	for i := 0; i < nGraphs; i++ {
		g := graphName(i)
		sameAs(t, "GET", "/v1/graphs/"+g, nil, cts.URL, ots.URL, http.StatusOK)
		p, body := correlate(i)
		sameAs(t, "POST", p, body, cts.URL, ots.URL, http.StatusOK)
	}
	// The merged graph list equals the oracle's (both sorted by name).
	sameAs(t, "GET", "/v1/graphs", nil, cts.URL, ots.URL, http.StatusOK)

	// Screening routes by job-ID suffix: the 202 carries the member
	// coordinates, polls route back, and the result matches the oracle.
	ccl, ocl := client.New(cts.URL), client.New(ots.URL)
	screenReq := api.ScreenRequest{H: 2, SampleSize: 64, Seed: 7, Workers: 1}
	acc, err := ccl.Screen(ctx, "g00", screenReq)
	if err != nil {
		t.Fatalf("cluster screen: %v", err)
	}
	if _, _, _, ok := splitJobID(acc.JobID); !ok {
		t.Fatalf("cluster job ID %q carries no member suffix", acc.JobID)
	}
	cJob, err := ccl.WaitJob(ctx, acc.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("cluster wait: %v", err)
	}
	if cJob.ID != acc.JobID || cJob.Status != api.JobDone {
		t.Fatalf("cluster job = %+v", cJob)
	}
	oAcc, err := ocl.Screen(ctx, "g00", screenReq)
	if err != nil {
		t.Fatalf("oracle screen: %v", err)
	}
	oJob, err := ocl.WaitJob(ctx, oAcc.JobID, 5*time.Millisecond)
	if err != nil {
		t.Fatalf("oracle wait: %v", err)
	}
	cRes, _ := json.Marshal(cJob.Result)
	oRes, _ := json.Marshal(oJob.Result)
	if !bytes.Equal(cRes, oRes) {
		t.Fatalf("screen result diverged:\ncluster: %s\noracle:  %s", cRes, oRes)
	}

	// Converge every replica, then kill one owner.
	for _, m := range members {
		m.converge(t)
	}
	victimName := rendezvousOwner([]string{"n1", "n2", "n3"}, "g00")
	var victim *clusterMember
	for _, m := range members {
		if m.name == victimName {
			victim = m
		}
	}
	victim.owner.ts.Close()
	coord.ProbeNow(ctx)

	// Reads on the victim's graphs keep answering — from the replica —
	// still byte-equivalent to the oracle.
	sameAs(t, "GET", "/v1/graphs/g00", nil, cts.URL, ots.URL, http.StatusOK)
	p, body := correlate(0)
	sameAs(t, "POST", p, body, cts.URL, ots.URL, http.StatusOK)

	// Mutations answer the typed no_owner shed.
	code, raw = doRaw(t, "POST", cts.URL+"/v1/graphs/g00/edges", api.MutateEdgesRequest{Insert: [][2]int{{2, 7}}})
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || code != api.StatusOf(api.CodeNoOwner) || e.Code != api.CodeNoOwner || !e.Retryable() || e.RetryAfterMS == 0 {
		t.Fatalf("mutation without owner: %d %s", code, raw)
	}

	// Rejoin: a fresh read-only node bootstraps from the surviving
	// replica through the replication primitives (snapshot image + WAL
	// tail), catches up, is promoted, and the coordinator flips the
	// placement atomically.
	fresh := newClusterNode(t, true)
	fol := replica.New(server.ReplicaSource{S: victim.replica.srv}, fresh.srv.FollowerState(), nil)
	fresh.srv.AttachFollower(fol)
	cuCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	if err := fol.CatchUp(cuCtx, time.Millisecond); err != nil {
		t.Fatalf("rejoin catch-up: %v", err)
	}
	cancel()
	fresh.srv.Promote()
	if err := coord.ReplaceOwner(victimName, fresh.ts.URL); err != nil {
		t.Fatal(err)
	}
	coord.ProbeNow(ctx)

	// The member takes writes again, and the full read sweep is still
	// byte-equivalent to the oracle.
	sameAs(t, "POST", "/v1/graphs/g00/edges",
		api.MutateEdgesRequest{Insert: [][2]int{{2, 7}}},
		cts.URL, ots.URL, http.StatusOK)
	for i := 0; i < nGraphs; i++ {
		g := graphName(i)
		sameAs(t, "GET", "/v1/graphs/"+g, nil, cts.URL, ots.URL, http.StatusOK)
		p, body := correlate(i)
		sameAs(t, "POST", p, body, cts.URL, ots.URL, http.StatusOK)
	}

	// The flip is accounted, and the victim's owner endpoint is the
	// fresh node.
	_, raw = doRaw(t, "GET", cts.URL+"/healthz", nil)
	var h2 api.Health
	if err := json.Unmarshal(raw, &h2); err != nil || h2.Cluster == nil {
		t.Fatalf("healthz after flip: %v", err)
	}
	if h2.Cluster.Rebalanced != 1 {
		t.Fatalf("rebalanced = %d, want 1", h2.Cluster.Rebalanced)
	}
	for _, mh := range h2.Cluster.Members {
		if mh.Name != victimName {
			continue
		}
		if mh.Endpoints[0].URL != fresh.ts.URL || !mh.Endpoints[0].Healthy {
			t.Fatalf("victim owner endpoint after flip = %+v", mh.Endpoints[0])
		}
	}
}

// TestCoordinatorEnvelopes pins the coordinator's own error surface to
// the unified envelope: unknown routes, invalid names, and job IDs
// without member coordinates.
func TestCoordinatorEnvelopes(t *testing.T) {
	m := newClusterMember(t, "solo")
	coord, err := NewCoordinator(Config{Topology: Topology{Members: []Member{
		{Name: "solo", URL: m.owner.ts.URL, Replicas: []string{m.replica.ts.URL}},
	}}})
	if err != nil {
		t.Fatal(err)
	}
	cts := httptest.NewServer(coord.Handler())
	t.Cleanup(cts.Close)

	cases := []struct {
		method, path string
		body         any
		code         api.ErrorCode
	}{
		{"GET", "/nope", nil, api.CodeNotFound},
		{"PUT", "/v1/graphs", nil, api.CodeNotFound},
		{"POST", "/v1/graphs", api.RegisterGraphRequest{Name: "bad name"}, api.CodeInvalidName},
		{"GET", "/v1/graphs/bad%20name", nil, api.CodeInvalidName},
		{"GET", "/v1/jobs/job-1", nil, api.CodeNotFound},         // no member suffix
		{"GET", "/v1/jobs/job-1@9.solo", nil, api.CodeNotFound},  // endpoint out of range
		{"GET", "/v1/jobs/job-1@0.ghost", nil, api.CodeNotFound}, // unknown member
	}
	for _, c := range cases {
		code, raw := doRaw(t, c.method, cts.URL+c.path, c.body)
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s %s: body %q not an envelope: %v", c.method, c.path, raw, err)
		}
		if e.Code != c.code || code != api.StatusOf(c.code) || e.Reason == "" {
			t.Fatalf("%s %s = %d %s, want code %s", c.method, c.path, code, raw, c.code)
		}
	}

	// Errors raised on the node pass through the coordinator verbatim.
	code, raw := doRaw(t, "GET", cts.URL+"/v1/graphs/missing", nil)
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || code != 404 || e.Code != api.CodeNotFound {
		t.Fatalf("proxied 404 = %d %s", code, raw)
	}
}
