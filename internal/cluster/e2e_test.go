package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tesc/api"
	"tesc/client"
	"tesc/internal/replica"
	"tesc/internal/server"
	"tesc/internal/wal"
)

// hops is the cluster's network, all in process: a request reaches the
// handler registered for its URL's host, and a host with no handler
// refuses the connection. No sockets, so a cycle runs in a bubble.
type hops struct {
	mu    sync.Mutex
	hosts map[string]http.Handler
	next  int
}

func newHops() *hops { return &hops{hosts: make(map[string]http.Handler)} }

// serve puts h on a fresh host and returns its base URL.
func (n *hops) serve(h http.Handler) string {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.next++
	host := fmt.Sprintf("node%d", n.next)
	n.hosts[host] = h
	return "http://" + host
}

// down takes the host of url off the network.
func (n *hops) down(url string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.hosts, strings.TrimPrefix(url, "http://"))
}

func (n *hops) client() *http.Client { return &http.Client{Transport: n} }

func (n *hops) RoundTrip(req *http.Request) (*http.Response, error) {
	n.mu.Lock()
	h := n.hosts[req.URL.Host]
	n.mu.Unlock()
	if h == nil {
		if req.Body != nil {
			req.Body.Close()
		}
		return nil, fmt.Errorf("dial %s: connection refused", req.URL.Host)
	}
	return handlerHop{h}.RoundTrip(req)
}

// clusterNode is one in-process tescd over its own FaultFS.
type clusterNode struct {
	srv *server.Server
	fs  *wal.FaultFS
	url string
}

// newClusterNode boots a node over fsys, replaying whatever it holds,
// and puts it on the network. The caller stops it.
func newClusterNode(t *testing.T, net *hops, fsys *wal.FaultFS, readOnly bool) *clusterNode {
	t.Helper()
	srv := server.New(server.Config{
		IndexCacheCapacity: 4,
		DataDir:            "data",
		FS:                 fsys,
		CheckpointDelay:    time.Hour,
		ReadOnly:           readOnly,
	})
	if _, err := srv.LoadData(); err != nil {
		t.Fatal(err)
	}
	return &clusterNode{srv: srv, fs: fsys, url: net.serve(srv.Handler())}
}

// clusterMember is an owner node plus one durable replica following it
// over the production HTTP wire path.
type clusterMember struct {
	name    string
	owner   *clusterNode
	replica *clusterNode
	fol     *replica.Follower
}

func newClusterMember(t *testing.T, net *hops, name string) *clusterMember {
	t.Helper()
	owner := newClusterNode(t, net, wal.NewFaultFS(), false)
	rep := newClusterNode(t, net, wal.NewFaultFS(), true)
	fol := replica.New(&replica.HTTPTransport{Base: owner.url, Client: net.client()}, rep.srv.FollowerState(), nil)
	rep.srv.AttachFollower(fol)
	return &clusterMember{name: name, owner: owner, replica: rep, fol: fol}
}

// close stops the member's live nodes.
func (m *clusterMember) close() {
	for _, n := range []*clusterNode{m.owner, m.replica} {
		if n != nil {
			n.srv.Close()
		}
	}
}

// converge syncs the member's replica until a round ends with zero lag.
func (m *clusterMember) converge(t *testing.T) {
	t.Helper()
	var err error
	for round := 0; round < 100; round++ {
		if err = m.fol.Sync(); err == nil && m.fol.Metrics().LagEpochs == 0 {
			return
		}
	}
	t.Fatalf("member %s replica did not catch up in 100 rounds (last sync: %v, lag %d)", m.name, err, m.fol.Metrics().LagEpochs)
}

// rawBody is a request body sent as is, not JSON-encoded.
type rawBody string

// doRaw issues a request and returns the status plus the raw body —
// raw, because the e2e contract is byte-level response equivalence.
func (n *hops) doRaw(t *testing.T, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	switch b := body.(type) {
	case nil:
	case rawBody:
		rd = strings.NewReader(string(b))
	default:
		buf, err := json.Marshal(b)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := n.client().Do(req)
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
func (n *hops) sameAs(t *testing.T, method, path string, body any, clusterURL, oracleURL string, wantCode int) {
	t.Helper()
	cCode, cRaw := n.doRaw(t, method, clusterURL+path, body)
	oCode, oRaw := n.doRaw(t, method, oracleURL+path, body)
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

// edgeList builds a small per-graph topology: a ring of n nodes with
// two random chords, so graphs differ from each other.
func edgeList(n int, rng *rand.Rand) string {
	var b bytes.Buffer
	for v := 0; v < n; v++ {
		fmt.Fprintf(&b, "%d %d\n", v, (v+1)%n)
	}
	fmt.Fprintf(&b, "0 %d\n", 2+rng.IntN(n-3))
	fmt.Fprintf(&b, "1 %d\n", 3+rng.IntN(n-4))
	return b.String()
}

// randomEdge draws an edge between two distinct nodes of an n-node graph.
func randomEdge(n int, rng *rand.Rand) [2]int {
	u, v := rng.IntN(n), rng.IntN(n-1)
	if v >= u {
		v++
	}
	return [2]int{u, v}
}

// TestClusterEndToEnd runs the cluster cycle once at a fixed seed.
func TestClusterEndToEnd(t *testing.T) { clusterCycle(t, 1) }

// FuzzClusterCycle runs one cluster cycle per seed. The seed fixes the
// graphs, the events, every mutation and query seed, and which member
// loses its owner, so a failing seed replays its schedule exactly.
// Built with GOEXPERIMENT=synctest the cycle runs in a bubble on a fake
// clock; goroutine interleavings stay the scheduler's.
func FuzzClusterCycle(f *testing.F) {
	f.Add(uint64(19))
	f.Fuzz(clusterCycle)
}

func clusterCycle(t *testing.T, seed uint64) { bubble(func() { runClusterCycle(t, seed) }) }

// runClusterCycle is the cluster's acceptance scenario: 32 graphs
// through a 3-member coordinator, every response byte-equivalent to a
// single node holding all of them; one member's owner dies (a kill and
// a crash of its FaultFS), reads keep answering from its replica and
// mutations shed the typed no_owner; then the replica is restarted as
// the member's owner and a coordinator naming it takes writes for the
// member again. Every hop is in process.
func runClusterCycle(t *testing.T, seed uint64) {
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	net := newHops()
	memberNames := []string{"n1", "n2", "n3"}
	members := make(map[string]*clusterMember, len(memberNames))
	for _, name := range memberNames {
		members[name] = newClusterMember(t, net, name)
		defer members[name].close()
	}
	topology := func() Topology {
		var top Topology
		for _, name := range memberNames {
			m := members[name]
			mem := Member{Name: name, URL: m.owner.url}
			if m.replica != nil {
				mem.Replicas = []string{m.replica.url}
			}
			top.Members = append(top.Members, mem)
		}
		return top
	}
	startCoordinator := func() (*Coordinator, string) {
		coord, err := NewCoordinator(Config{Topology: topology(), FailThreshold: 1, ProbeInterval: 500 * time.Millisecond, HTTPClient: net.client()})
		if err != nil {
			t.Fatal(err)
		}
		return coord, net.serve(coord.Handler())
	}
	coord, curl := startCoordinator()

	oracle := server.New(server.Config{IndexCacheCapacity: 64})
	ourl := net.serve(oracle.Handler())

	ctx := context.Background()

	// Register, populate and mutate every graph through the
	// coordinator and the oracle in lockstep, comparing each response.
	sizes := make([]int, nGraphs)
	for i := range sizes {
		g, n := graphName(i), 10+rng.IntN(6)
		sizes[i] = n
		net.sameAs(t, "POST", "/v1/graphs",
			api.RegisterGraphRequest{Name: g, EdgeList: edgeList(n, rng)},
			curl, ourl, http.StatusCreated)
		net.sameAs(t, "POST", "/v1/graphs/"+g+"/events",
			api.RegisterEventsRequest{Events: map[string][]int{
				"a": {0, 1, 2 + rng.IntN(n-3)},
				"b": {n - 1, n - 2, rng.IntN(n)},
			}},
			curl, ourl, http.StatusOK)
		net.sameAs(t, "POST", "/v1/graphs/"+g+"/edges",
			api.MutateEdgesRequest{Insert: [][2]int{randomEdge(n, rng), randomEdge(n, rng)}},
			curl, ourl, http.StatusOK)
	}

	// Placement must cover every member, and the coordinator's healthz
	// must account for all graphs.
	code, raw := net.doRaw(t, "GET", curl+"/healthz", nil)
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
	correlateSeed := rng.Uint64()
	readSweep := func(url string) {
		t.Helper()
		for i := 0; i < nGraphs; i++ {
			g := graphName(i)
			net.sameAs(t, "GET", "/v1/graphs/"+g, nil, url, ourl, http.StatusOK)
			net.sameAs(t, "POST", "/v1/graphs/"+g+"/correlate",
				api.CorrelateRequest{A: "a", B: "b", H: 2, SampleSize: 64, Seed: correlateSeed},
				url, ourl, http.StatusOK)
		}
		// The merged graph list equals the oracle's (both sorted by name).
		net.sameAs(t, "GET", "/v1/graphs", nil, url, ourl, http.StatusOK)
	}
	readSweep(curl)

	// Screening routes by job-ID suffix: the 202 carries the member
	// coordinates, polls route back, and the result matches the oracle.
	screened := graphName(rng.IntN(nGraphs))
	ccl, ocl := client.New(curl, client.WithHTTPClient(net.client())), client.New(ourl, client.WithHTTPClient(net.client()))
	screenReq := api.ScreenRequest{H: 2, SampleSize: 64, Seed: rng.Uint64(), Workers: 1}
	acc, err := ccl.Screen(ctx, screened, screenReq)
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
	oAcc, err := ocl.Screen(ctx, screened, screenReq)
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
	// A screen body the node rejects is rejected identically through
	// the coordinator: an unknown field and a body that is not JSON.
	for _, bad := range []any{map[string]any{"h": 1, "topk": 5}, rawBody("h=1")} {
		net.sameAs(t, "POST", "/v1/graphs/"+screened+"/screen", bad, curl, ourl, http.StatusBadRequest)
	}

	// Converge every replica, then kill one owner.
	for _, m := range members {
		m.converge(t)
	}
	victim := members[memberNames[rng.IntN(len(memberNames))]]
	net.down(victim.owner.url)
	victim.owner.srv.Kill()
	victim.owner.fs.Crash()
	coord.ProbeNow(ctx)

	// Reads on the victim's graphs keep answering — from the replica —
	// still byte-equivalent to the oracle.
	readSweep(curl)

	// Mutations on the victim's graphs answer the typed no_owner shed;
	// mutations elsewhere keep working, equal to the oracle.
	for i := 0; i < nGraphs; i++ {
		g := graphName(i)
		mut := api.MutateEdgesRequest{Insert: [][2]int{randomEdge(sizes[i], rng)}}
		if rendezvousOwner(memberNames, g) != victim.name {
			net.sameAs(t, "POST", "/v1/graphs/"+g+"/edges", mut, curl, ourl, http.StatusOK)
			continue
		}
		code, raw := net.doRaw(t, "POST", curl+"/v1/graphs/"+g+"/edges", mut)
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || code != api.StatusOf(api.CodeNoOwner) || e.Code != api.CodeNoOwner || !e.Retryable() || e.RetryAfterMS == 0 {
			t.Fatalf("mutation of %s without owner: %d %s", g, code, raw)
		}
	}

	// Rejoin by restart: the victim's durable replica is closed and
	// rebooted from its own data directory without ReadOnly, so it comes
	// back at the dead owner's epochs as a writable node. A coordinator
	// whose topology names it as the member's owner routes the member's
	// graphs to it: placement depends only on member names.
	net.down(victim.replica.url)
	victim.replica.srv.Close()
	victim.owner, victim.replica = newClusterNode(t, net, victim.replica.fs, false), nil
	net.down(curl)
	coord, curl = startCoordinator()
	coord.ProbeNow(ctx)

	// The member takes writes again, and the full read sweep is still
	// byte-equivalent to the oracle.
	for i := 0; i < nGraphs; i++ {
		if g := graphName(i); rendezvousOwner(memberNames, g) == victim.name {
			net.sameAs(t, "POST", "/v1/graphs/"+g+"/edges",
				api.MutateEdgesRequest{Insert: [][2]int{randomEdge(sizes[i], rng)}},
				curl, ourl, http.StatusOK)
		}
	}
	readSweep(curl)

	// The victim's owner endpoint is the restarted node, healthy.
	_, raw = net.doRaw(t, "GET", curl+"/healthz", nil)
	var h2 api.Health
	if err := json.Unmarshal(raw, &h2); err != nil || h2.Cluster == nil {
		t.Fatalf("healthz after rejoin: %v", err)
	}
	for _, mh := range h2.Cluster.Members {
		if mh.Name == victim.name && (mh.Endpoints[0].URL != victim.owner.url || !mh.Endpoints[0].Healthy) {
			t.Fatalf("victim owner endpoint after rejoin = %+v", mh.Endpoints[0])
		}
	}
}

// soloCluster is a one-member cluster — an owner, its replica and a
// coordinator — on its own network, stopped when the test ends.
func soloCluster(t *testing.T) (net *hops, m *clusterMember, curl string) {
	t.Helper()
	net = newHops()
	m = newClusterMember(t, net, "solo")
	t.Cleanup(m.close)
	coord, err := NewCoordinator(Config{
		Topology: Topology{Members: []Member{
			{Name: "solo", URL: m.owner.url, Replicas: []string{m.replica.url}},
		}},
		HTTPClient: net.client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, m, net.serve(coord.Handler())
}

// TestCoordinatorEnvelopes pins the coordinator's own error surface to
// the unified envelope: unknown routes, invalid names, and job IDs
// without member coordinates.
func TestCoordinatorEnvelopes(t *testing.T) {
	net, _, curl := soloCluster(t)

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
		code, raw := net.doRaw(t, c.method, curl+c.path, c.body)
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil {
			t.Fatalf("%s %s: body %q not an envelope: %v", c.method, c.path, raw, err)
		}
		if e.Code != c.code || code != api.StatusOf(c.code) || e.Reason == "" {
			t.Fatalf("%s %s = %d %s, want code %s", c.method, c.path, code, raw, c.code)
		}
	}

	// Errors raised on the node pass through the coordinator verbatim.
	code, raw := net.doRaw(t, "GET", curl+"/v1/graphs/missing", nil)
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || code != 404 || e.Code != api.CodeNotFound {
		t.Fatalf("proxied 404 = %d %s", code, raw)
	}
}

// The coordinator writes its own answers with the node's envelope
// writer, so an answer it builds (the merged graph list, an invalid
// name refused before routing) is byte-identical to the node's, HTML
// escaping and all.
func TestCoordinatorAnswersMatchNodeBytes(t *testing.T) {
	net, m, curl := soloCluster(t)
	for _, name := range []string{"acme&web", "plain"} {
		code, raw := net.doRaw(t, "POST", curl+"/v1/graphs", api.RegisterGraphRequest{Name: name, EdgeList: "0 1\n1 2\n"})
		if code != http.StatusCreated {
			t.Fatalf("registering %s: %d %s", name, code, raw)
		}
	}
	for _, c := range []struct {
		method, path string
		body         any
	}{
		{"GET", "/v1/graphs", nil},
		{"GET", "/v1/graphs/a%20b%26c", nil},
		{"POST", "/v1/graphs", api.RegisterGraphRequest{Name: "x y&z<"}},
	} {
		cCode, cRaw := net.doRaw(t, c.method, curl+c.path, c.body)
		nCode, nRaw := net.doRaw(t, c.method, m.owner.url+c.path, c.body)
		if cCode != nCode || !bytes.Equal(cRaw, nRaw) {
			t.Errorf("%s %s: coordinator %d %s\nnode        %d %s", c.method, c.path, cCode, cRaw, nCode, nRaw)
		}
	}
}

// Event names that need escaping reach the owner as the client sent
// them: each delete through the coordinator removes exactly its own
// event, and none counts against the owner's health.
func TestCoordinatorForwardsEscapedPath(t *testing.T) {
	net, m, curl := soloCluster(t)
	ctx := context.Background()
	cl := client.New(curl, client.WithHTTPClient(net.client()))
	if _, err := cl.RegisterGraph(ctx, api.RegisterGraphRequest{Name: "g", EdgeList: "0 1\n1 2\n2 3\n"}); err != nil {
		t.Fatal(err)
	}
	names := []string{"k?v", "k", "x/y", "c#d", "50%", "a b"}
	events := make(map[string][]int, len(names))
	for i, name := range names {
		events[name] = []int{i % 4}
	}
	if _, err := cl.RegisterEvents(ctx, "g", api.RegisterEventsRequest{Events: events}); err != nil {
		t.Fatal(err)
	}
	left := len(names)
	for _, name := range names {
		if _, err := cl.DeleteEvent(ctx, "g", name); err != nil {
			t.Fatalf("deleting event %q: %v", name, err)
		}
		left--
		e, _ := m.owner.srv.Registry().Get("g")
		store := e.Snapshot().Store
		if store.Has(name) || len(store.Names()) != left {
			t.Fatalf("after deleting %q the owner holds %q", name, store.Names())
		}
	}
	h, err := cl.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if owner := h.Cluster.Members[0].Endpoints[0]; h.Cluster.ProxyErrors != 0 || owner.ConsecutiveFailures != 0 || !owner.Healthy {
		t.Fatalf("owner lost health forwarding escaped names: %+v", h.Cluster)
	}
}
