package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tesc/api"
	"tesc/client"
	"tesc/internal/httpbody"
)

// Config parameterizes a Coordinator.
type Config struct {
	Topology Topology
	// ProbeInterval is the period between /healthz probe sweeps
	// (default 1s).
	ProbeInterval time.Duration
	// FailThreshold is the consecutive probe failures after which an
	// endpoint is ejected from routing (default 3).
	FailThreshold int
	// MaxLagEpochs bounds replica read eligibility: a replica reporting
	// replica_lag_epochs beyond this is not read-eligible (default 8).
	MaxLagEpochs uint64
	// HTTPClient is shared by every member client; nil uses a default
	// with a 30s probe-independent timeout left to request contexts.
	HTTPClient *http.Client
	// Log receives routing diagnostics; nil disables them.
	Log *log.Logger
}

// endpoint is one probed URL: a member's owner or one of its replicas.
type endpoint struct {
	url  string
	role string // "owner" | "replica"
	cl   *client.Client

	// Probe state, under Coordinator.mu.
	healthy     bool
	consecFails int
	lagEpochs   uint64
}

// member is one owner group. endpoints[0] is the owner.
type member struct {
	name      string
	endpoints []*endpoint
}

// Coordinator routes the single-node API across a topology. It is an
// http.Handler; NewCoordinator wires the routes and Run starts the
// health prober.
type Coordinator struct {
	cfg Config
	mux *http.ServeMux

	mu      sync.RWMutex
	members []*member
	// graphs is the set of graphs created (and not dropped) through
	// this coordinator — the healthz placement count.
	graphs map[string]bool

	proxied     atomic.Int64
	proxyErrors atomic.Int64
}

// NewCoordinator builds a coordinator over the topology.
func NewCoordinator(cfg Config) (*Coordinator, error) {
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.MaxLagEpochs == 0 {
		cfg.MaxLagEpochs = 8
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	c := &Coordinator{cfg: cfg, mux: http.NewServeMux(), graphs: make(map[string]bool)}
	for _, m := range cfg.Topology.Members {
		mm := &member{name: m.Name}
		mm.endpoints = append(mm.endpoints, c.newEndpoint(m.URL, "owner"))
		for _, r := range m.Replicas {
			mm.endpoints = append(mm.endpoints, c.newEndpoint(r, "replica"))
		}
		c.members = append(c.members, mm)
	}
	c.routes()
	return c, nil
}

func (c *Coordinator) newEndpoint(url, role string) *endpoint {
	return &endpoint{
		url: url, role: role,
		cl: client.New(url, client.WithHTTPClient(c.cfg.HTTPClient)),
		// Unprobed endpoints start routable — a coordinator that boots
		// ahead of its first probe sweep must not shed every request.
		healthy: true,
	}
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.cfg.Log != nil {
		c.cfg.Log.Printf(format, args...)
	}
}

// Handler returns the coordinator's HTTP handler — the same surface a
// single node serves.
func (c *Coordinator) Handler() http.Handler { return c.mux }

// Run starts the health prober and blocks until ctx is done. The first
// sweep runs immediately.
func (c *Coordinator) Run(ctx context.Context) {
	t := time.NewTicker(c.cfg.ProbeInterval)
	defer t.Stop()
	for {
		c.ProbeNow(ctx)
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// routes registers the single-node API surface. Every pattern a node
// serves resolves here too; the catch-all keeps even unknown paths in
// the error envelope.
func (c *Coordinator) routes() {
	c.mux.HandleFunc("POST /v1/graphs", c.handleCreateGraph)
	c.mux.HandleFunc("GET /v1/graphs", c.handleListGraphs)
	c.mux.HandleFunc("/v1/graphs/{name}", c.handlePerGraph)
	c.mux.HandleFunc("/v1/graphs/{name}/{rest...}", c.handlePerGraph)
	c.mux.HandleFunc("GET /v1/jobs/{id}", c.handleJob)
	c.mux.HandleFunc("DELETE /v1/jobs/{id}", c.handleJob)
	c.mux.HandleFunc("GET /healthz", c.handleHealth)
	c.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		api.WriteError(w, api.CodeNotFound, "no route for %s %s", r.Method, r.URL.Path)
	})
}

// ---- placement ------------------------------------------------------

// memberNames returns the member names in topology order (under mu).
func (c *Coordinator) memberNames() []string {
	names := make([]string, len(c.members))
	for i, m := range c.members {
		names[i] = m.name
	}
	return names
}

// ownerOf resolves a graph's member. Placement is the pure rendezvous
// function of (member set, graph name): no placement log, no consensus
// — any coordinator over the same topology routes identically.
func (c *Coordinator) ownerOf(graph string) *member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	name := rendezvousOwner(c.memberNames(), graph)
	for _, m := range c.members {
		if m.name == name {
			return m
		}
	}
	return nil
}

func (c *Coordinator) memberByName(name string) *member {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, m := range c.members {
		if m.name == name {
			return m
		}
	}
	return nil
}

// readable reports whether ep may serve reads: it is healthy, and a
// replica lags the owner by at most MaxLagEpochs. c.mu must be held.
func (c *Coordinator) readable(ep *endpoint) bool {
	return ep.healthy && (ep.role == "owner" || ep.lagEpochs <= c.cfg.MaxLagEpochs)
}

// readEndpoint picks the first routable endpoint for reads: the owner
// when healthy, else the first readable replica.
func (c *Coordinator) readEndpoint(m *member) *endpoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, ep := range m.endpoints {
		if c.readable(ep) {
			return ep
		}
	}
	return nil
}

// writeEndpoint returns the owner endpoint when routable, nil
// otherwise — mutations never go anywhere else.
func (c *Coordinator) writeEndpoint(m *member) *endpoint {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if ep := m.endpoints[0]; ep.healthy {
		return ep
	}
	return nil
}

// ---- proxying -------------------------------------------------------

// forward replays the incoming request against ep byte-transparently
// and streams the member's response back verbatim. Reports whether the
// member answered at all (any HTTP status counts; a transport error
// does not).
func (c *Coordinator) forward(w http.ResponseWriter, r *http.Request, ep *endpoint, body io.Reader) bool {
	resp, ok := c.send(r, ep, body)
	if !ok {
		return false
	}
	defer resp.Body.Close()
	relay(w, resp)
	return true
}

// send replays the incoming request against ep, returning the member's
// response, or false on a transport error, which counts against ep.
func (c *Coordinator) send(r *http.Request, ep *endpoint, body io.Reader) (*http.Response, bool) {
	// The escaped form: a decoded "?", "#", "/" or "%" in an event or
	// monitor name would change the member's route.
	pathAndQuery := r.URL.EscapedPath()
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	resp, err := ep.cl.Forward(r.Context(), r.Method, pathAndQuery, r.Header, body)
	if err != nil {
		c.proxyErrors.Add(1)
		c.logf("cluster: proxy %s %s -> %s: %v", r.Method, r.URL.Path, ep.url, err)
		c.fail(ep)
		return nil, false
	}
	c.proxied.Add(1)
	return resp, true
}

// relay streams a member's response back verbatim.
func relay(w http.ResponseWriter, resp *http.Response) {
	h := w.Header()
	for k, vs := range resp.Header {
		h[k] = vs
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = io.Copy(w, resp.Body)
}

// proxyRead forwards a read to the member's eligible endpoints in
// order, failing over on transport errors only (a non-2xx answer is an
// answer — it streams back verbatim).
func (c *Coordinator) proxyRead(w http.ResponseWriter, r *http.Request, m *member, body []byte) {
	c.mu.RLock()
	eps := append([]*endpoint(nil), m.endpoints...)
	c.mu.RUnlock()
	tried := 0
	for _, ep := range eps {
		c.mu.RLock()
		ok := c.readable(ep)
		c.mu.RUnlock()
		if !ok {
			continue
		}
		tried++
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		if c.forward(w, r, ep, rd) {
			return
		}
	}
	api.WriteRetryable(w, time.Second, api.CodeUnavailable,
		"member %s has no routable endpoint for reads (%d tried)", m.name, tried)
}

// proxyWrite forwards a mutation to the member's owner, or answers the
// typed no_owner shed when the owner is not routable.
func (c *Coordinator) proxyWrite(w http.ResponseWriter, r *http.Request, m *member, body []byte) bool {
	ep := c.writeEndpoint(m)
	if ep == nil {
		api.WriteRetryable(w, time.Second, api.CodeNoOwner,
			"member %s (owner of this graph) is not routable; mutations wait for owner recovery or handoff", m.name)
		return false
	}
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	if !c.forward(w, r, ep, rd) {
		api.WriteRetryable(w, time.Second, api.CodeNoOwner,
			"member %s owner did not answer", m.name)
		return false
	}
	return true
}

// ---- handlers -------------------------------------------------------

// readBody buffers a request body. Mutation bodies must be buffered
// (the name decides the route before the bytes are spent), so
// api.MaxBodyBytes bounds them: a hostile request must not hold the
// coordinator's memory.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	return httpbody.Read(w, r, api.MaxBodyBytes)
}

// handleCreateGraph reads just enough of the body to place the graph
// (the name), then forwards the original bytes to the owner. A
// canonical body is scanned (api.ScanRegisterGraph); any other body,
// or one with more than whitespace after its object, is unmarshaled.
func (c *Coordinator) handleCreateGraph(w http.ResponseWriter, r *http.Request) {
	body, ok := readBody(w, r)
	if !ok {
		return
	}
	req, _, end, ok := api.ScanRegisterGraph(body)
	if !ok || len(bytes.TrimLeft(body[end:], " \t\r\n")) > 0 {
		req = api.RegisterGraphRequest{}
		if err := json.Unmarshal(body, &req); err != nil {
			api.WriteError(w, api.CodeBadRequest, "decoding request: %v", err)
			return
		}
	}
	if err := api.ValidateGraphName(req.Name); err != nil {
		api.WriteError(w, api.CodeInvalidName, "%v", err)
		return
	}
	m := c.ownerOf(req.Name)
	if m == nil {
		api.WriteError(w, api.CodeNoOwner, "no members to place graph %q on", req.Name)
		return
	}
	rec := &statusRecorder{ResponseWriter: w}
	if c.proxyWrite(rec, r, m, body) && rec.status == http.StatusCreated {
		c.mu.Lock()
		c.graphs[req.Name] = true
		c.mu.Unlock()
	}
}

// handleListGraphs fans the list across members and merges, sorted by
// name. Members with no routable endpoint are skipped — the list keeps
// answering through partial outages.
func (c *Coordinator) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	c.mu.RLock()
	members := append([]*member(nil), c.members...)
	c.mu.RUnlock()
	out := make([]api.GraphInfo, 0, 16)
	for _, m := range members {
		ep := c.readEndpoint(m)
		if ep == nil {
			c.logf("cluster: list: member %s skipped (no routable endpoint)", m.name)
			continue
		}
		infos, err := ep.cl.ListGraphs(r.Context())
		if e, ok := err.(*api.Error); ok {
			// A typed answer is an answer, not a proxy error.
			c.proxied.Add(1)
			c.logf("cluster: list via %s: %v", ep.url, e)
			continue
		}
		if err != nil {
			c.proxyErrors.Add(1)
			c.logf("cluster: list via %s: %v", ep.url, err)
			c.fail(ep)
			continue
		}
		c.proxied.Add(1)
		out = append(out, infos...)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	api.WriteJSON(w, http.StatusOK, out)
}

// handlePerGraph routes every /v1/graphs/{name}... request: reads fan
// across the owner group, mutations go to the owner only.
func (c *Coordinator) handlePerGraph(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if err := api.ValidateGraphName(name); err != nil {
		api.WriteError(w, api.CodeInvalidName, "%v", err)
		return
	}
	m := c.ownerOf(name)
	if m == nil {
		api.WriteError(w, api.CodeNoOwner, "no members to route graph %q to", name)
		return
	}
	rest := r.PathValue("rest")

	// Reads: every GET, plus correlate (a POST by shape, a pure
	// function of the snapshot by semantics).
	isRead := r.Method == http.MethodGet || (r.Method == http.MethodPost && rest == "correlate")
	if isRead {
		var body []byte
		if r.Body != nil {
			var ok bool
			if body, ok = readBody(w, r); !ok {
				return
			}
		}
		c.proxyRead(w, r, m, body)
		return
	}

	body, ok := readBody(w, r)
	if !ok {
		return
	}
	switch {
	case r.Method == http.MethodPost && rest == "screen":
		// The 202 carries a job ID local to the owner; suffix it with
		// the endpoint coordinates so job polls route back to the node
		// that runs the sweep.
		c.proxyScreen(w, r, m, body)
	case r.Method == http.MethodDelete && rest == "":
		rec := &statusRecorder{ResponseWriter: w}
		if c.proxyWrite(rec, r, m, body) && rec.status == http.StatusNoContent {
			c.mu.Lock()
			delete(c.graphs, name)
			c.mu.Unlock()
		}
	default:
		c.proxyWrite(w, r, m, body)
	}
}

// proxyScreen forwards a screen request to the owner byte-transparently
// and rewrites the accepted job ID from "job-3" to "job-3@0.member": the
// suffix names the endpoint the job lives on, so polls route back to
// it. IDs are documented opaque; a single node returns bare IDs, a
// coordinator suffixed ones. Any other answer streams back verbatim.
func (c *Coordinator) proxyScreen(w http.ResponseWriter, r *http.Request, m *member, body []byte) {
	ep := c.writeEndpoint(m)
	if ep == nil {
		api.WriteRetryable(w, time.Second, api.CodeNoOwner,
			"member %s (owner of this graph) is not routable", m.name)
		return
	}
	resp, ok := c.send(r, ep, bytes.NewReader(body))
	if !ok {
		api.WriteRetryable(w, time.Second, api.CodeUnavailable, "member %s owner did not answer", m.name)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		relay(w, resp)
		return
	}
	var acc api.ScreenAccepted
	if err := json.NewDecoder(resp.Body).Decode(&acc); err != nil {
		api.WriteRetryable(w, time.Second, api.CodeUnavailable, "member %s: decoding screen reply: %v", m.name, err)
		return
	}
	acc.JobID = fmt.Sprintf("%s@0.%s", acc.JobID, m.name)
	api.WriteJSON(w, http.StatusAccepted, acc)
}

// answerClientErr relays a typed client error as the envelope it
// already is, or wraps a transport failure as unavailable.
func (c *Coordinator) answerClientErr(w http.ResponseWriter, err error) {
	if e, ok := err.(*api.Error); ok {
		c.proxied.Add(1)
		api.WriteJSON(w, api.StatusOf(e.Code), e)
		return
	}
	c.proxyErrors.Add(1)
	api.WriteRetryable(w, time.Second, api.CodeUnavailable, "proxying: %v", err)
}

// handleJob routes GET/DELETE /v1/jobs/{id} by the ID's endpoint
// suffix, restoring the suffix on the returned view.
func (c *Coordinator) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	bare, epIdx, memberName, ok := splitJobID(id)
	if !ok {
		api.WriteError(w, api.CodeNotFound, "job %q: cluster job IDs carry an @member suffix", id)
		return
	}
	m := c.memberByName(memberName)
	if m == nil {
		api.WriteError(w, api.CodeNotFound, "job %q: no member %q", id, memberName)
		return
	}
	c.mu.RLock()
	var ep *endpoint
	if epIdx < len(m.endpoints) {
		ep = m.endpoints[epIdx]
	}
	c.mu.RUnlock()
	if ep == nil {
		api.WriteError(w, api.CodeNotFound, "job %q: no endpoint %d on member %q", id, epIdx, memberName)
		return
	}
	var view api.JobView
	var err error
	if r.Method == http.MethodDelete {
		view, err = ep.cl.CancelJob(r.Context(), bare)
	} else {
		view, err = ep.cl.GetJob(r.Context(), bare)
	}
	if err != nil {
		c.answerClientErr(w, err)
		return
	}
	c.proxied.Add(1)
	view.ID = id
	status := http.StatusOK
	if r.Method == http.MethodDelete {
		status = http.StatusAccepted
	}
	api.WriteJSON(w, status, view)
}

// splitJobID parses "job-3@0.member" into (job-3, 0, member).
func splitJobID(id string) (bare string, epIdx int, memberName string, ok bool) {
	at := strings.LastIndex(id, "@")
	if at < 0 {
		return "", 0, "", false
	}
	suffix := id[at+1:]
	idxStr, name, found := strings.Cut(suffix, ".")
	if !found || name == "" {
		return "", 0, "", false
	}
	idx, err := strconv.Atoi(idxStr)
	if err != nil || idx < 0 {
		return "", 0, "", false
	}
	return id[:at], idx, name, true
}

// statusRecorder captures the proxied status so create/drop can track
// the placement set without re-reading the response.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(status int) {
	r.status = status
	r.ResponseWriter.WriteHeader(status)
}

// ---- health ---------------------------------------------------------

// ProbeNow runs one synchronous probe sweep over every endpoint. The
// prober calls it on a ticker; tests call it directly for determinism.
func (c *Coordinator) ProbeNow(ctx context.Context) {
	c.mu.RLock()
	var eps []*endpoint
	for _, m := range c.members {
		eps = append(eps, m.endpoints...)
	}
	c.mu.RUnlock()
	for _, ep := range eps {
		probeCtx, cancel := context.WithTimeout(ctx, c.cfg.ProbeInterval)
		h, err := ep.cl.Health(probeCtx)
		cancel()
		if err != nil {
			c.fail(ep)
			continue
		}
		c.mu.Lock()
		if !ep.healthy {
			c.logf("cluster: endpoint %s recovered", ep.url)
		}
		ep.healthy = true
		ep.consecFails = 0
		ep.lagEpochs = 0
		if h.ReplicaHealth != nil {
			ep.lagEpochs = h.ReplicaLagEpochs
		}
		c.mu.Unlock()
	}
}

// fail counts one transport failure of ep (a probe, or a request it
// did not answer at all) and ejects ep from routing at FailThreshold
// consecutive ones, until a probe brings it back. A typed non-2xx
// answer is an answer and never counts.
func (c *Coordinator) fail(ep *endpoint) {
	c.mu.Lock()
	defer c.mu.Unlock()
	ep.consecFails++
	if ep.consecFails >= c.cfg.FailThreshold && ep.healthy {
		c.logf("cluster: endpoint %s ejected after %d consecutive failures", ep.url, ep.consecFails)
		ep.healthy = false
	}
}

// clusterHealth builds the healthz cluster section (under mu).
func (c *Coordinator) clusterHealth() *api.ClusterHealth {
	c.mu.RLock()
	defer c.mu.RUnlock()
	names := c.memberNames()
	perMember := make(map[string]int)
	for g := range c.graphs {
		perMember[rendezvousOwner(names, g)]++
	}
	ch := &api.ClusterHealth{
		Graphs:      len(c.graphs),
		Proxied:     c.proxied.Load(),
		ProxyErrors: c.proxyErrors.Load(),
	}
	for _, m := range c.members {
		mh := api.ClusterMemberHealth{Name: m.name, Graphs: perMember[m.name]}
		for _, ep := range m.endpoints {
			mh.Endpoints = append(mh.Endpoints, api.ClusterEndpointHealth{
				URL:                 ep.url,
				Role:                ep.role,
				Healthy:             ep.healthy,
				ConsecutiveFailures: ep.consecFails,
				LagEpochs:           ep.lagEpochs,
			})
		}
		ch.Members = append(ch.Members, mh)
	}
	return ch
}

// handleHealth answers the coordinator's own healthz: node counters
// stay zero (the coordinator computes nothing), the Cluster section
// carries membership, placement and proxy accounting.
func (c *Coordinator) handleHealth(w http.ResponseWriter, r *http.Request) {
	ch := c.clusterHealth()
	h := api.Health{Status: "ok", Graphs: ch.Graphs, Cluster: ch}
	api.WriteJSON(w, http.StatusOK, h)
}
