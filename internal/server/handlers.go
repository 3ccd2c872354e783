package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/core"
	"tesc/internal/graphio"
	"tesc/internal/httpbody"
	"tesc/internal/screen"
	"tesc/internal/stats"
)

// ---- wire types -----------------------------------------------------

// Every request/response shape lives in the public api package — the
// single source of truth the OpenAPI spec and the typed client are
// generated from. The aliases keep handler code short; they ARE the
// api types, so nothing here can drift from the published contract.
type (
	errorResponse          = api.Error
	registerGraphRequest   = api.RegisterGraphRequest
	graphInfo              = api.GraphInfo
	registerEventsRequest  = api.RegisterEventsRequest
	registerEventsResponse = api.RegisterEventsResponse
	mutateEdgesRequest     = api.MutateEdgesRequest
	mutateEdgesResponse    = api.MutateEdgesResponse
	correlateRequest       = api.CorrelateRequest
	correlateResponse      = api.CorrelateResponse
	screenRequest          = api.ScreenRequest
	screenResponse         = api.ScreenAccepted
)

// maxInlineNodes caps the node universe of graphs registered through an
// inline edge_list body (16M nodes ≈ 128MB of offsets). Larger graphs
// load through the server-side path field.
const maxInlineNodes = 1 << 24

// ---- helpers --------------------------------------------------------

// bodyLimit is the largest request body tescd reads, api.MaxBodyBytes;
// tests lower it to cross the bound without buffering 256 MB.
var bodyLimit int64 = api.MaxBodyBytes

// decodeJSON decodes the first JSON value of a request body into v,
// refusing unknown fields; bytes after that value are ignored. The body
// streams through the decoder under bodyLimit: a declared length over
// it is refused unread, a streamed one once the decoder reads past it.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	if r.ContentLength > bodyLimit {
		httpbody.TooLarge(w, bodyLimit)
		return false
	}
	return decode(w, http.MaxBytesReader(w, r.Body, bodyLimit), v)
}

// decode decodes the first JSON value of body into v, unknown fields
// refused, and answers a failure with a 400.
func decode(w http.ResponseWriter, body io.Reader, v any) bool {
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			httpbody.TooLarge(w, tooLarge.Limit)
		} else {
			api.WriteError(w, api.CodeBadRequest, "invalid request body: %v", err)
		}
		return false
	}
	return true
}

// unescapeInPlace rewrites the escapes api.ScanRegisterGraph admits in
// an edge_list span (\n \t \r \" \\ \/) in place and returns the
// unescaped prefix of b.
func unescapeInPlace(b []byte) []byte {
	w := bytes.IndexByte(b, '\\')
	if w < 0 {
		return b
	}
	for r := w; r < len(b); {
		c := b[r+1]
		switch c {
		case 'n':
			c = '\n'
		case 't':
			c = '\t'
		case 'r':
			c = '\r'
		}
		b[w] = c
		w++
		r += 2
		run := bytes.IndexByte(b[r:], '\\')
		if run < 0 {
			run = len(b) - r
		}
		w += copy(b[w:], b[r:r+run])
		r += run
	}
	return b[:w]
}

// graphName extracts and validates the {name} path value. Names that do
// not round-trip URL escaping are rejected at the router with a typed
// 400: such a name can never have been registered (creation enforces
// the same rule), and in a cluster it is the routing key a coordinator
// proxies on, so it must be byte-transparent through any proxy hop.
func graphName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if err := api.ValidateGraphName(name); err != nil {
		api.WriteError(w, api.CodeInvalidName, "%v", err)
		return "", false
	}
	return name, true
}

// entry resolves the {name} path value to a registered graph, writing a
// typed 400 for unroutable names and a 404 for unknown ones.
func (s *Server) entry(w http.ResponseWriter, r *http.Request) (*GraphEntry, bool) {
	name, ok := graphName(w, r)
	if !ok {
		return nil, false
	}
	e, ok := s.registry.Get(name)
	if !ok {
		api.WriteError(w, api.CodeNotFound, "unknown graph %q", name)
		return nil, false
	}
	return e, true
}

func parseMethod(s string) (tesc.Method, error) {
	switch s {
	case "", "batch-bfs":
		return tesc.BatchBFS, nil
	case "importance":
		return tesc.Importance, nil
	case "whole-graph":
		return tesc.WholeGraph, nil
	case "rejection":
		return tesc.Rejection, nil
	default:
		return 0, fmt.Errorf("unknown method %q (batch-bfs | importance | whole-graph | rejection)", s)
	}
}

// tails is the one table of wire tail names: correlates take the
// facade's tesc.Tail, screens and monitors the statistic's alternative.
var tails = []struct {
	name string
	tail tesc.Tail
	alt  stats.Alternative
}{
	{"both", tesc.BothTails, stats.TwoSided},
	{"positive", tesc.PositiveTail, stats.Greater},
	{"negative", tesc.NegativeTail, stats.Less},
}

// parseTail looks a wire tail name up in tails; "" is "both".
func parseTail(s string) (tesc.Tail, stats.Alternative, error) {
	if s == "" {
		s = tails[0].name
	}
	for _, t := range tails {
		if t.name == s {
			return t.tail, t.alt, nil
		}
	}
	return 0, 0, fmt.Errorf("unknown tail %q (both | positive | negative)", s)
}

// tailName is parseTail's inverse on alternatives.
func tailName(alt stats.Alternative) string {
	for _, t := range tails {
		if t.alt == alt {
			return t.name
		}
	}
	return tails[0].name
}

func (e *GraphEntry) info() graphInfo {
	snap := e.Snapshot()
	return graphInfo{
		Name:    e.Name(),
		Nodes:   snap.Graph.NumNodes(),
		Edges:   snap.Graph.NumEdges(),
		Events:  snap.Store.NumEvents(),
		Epoch:   snap.Epoch,
		Created: e.Created(),
	}
}

// ---- handlers -------------------------------------------------------

// handleRegisterGraph implements POST /v1/graphs. A canonical body
// (api.ScanRegisterGraph) is parsed where it was read: its edge_list is
// unescaped in place and parsed from those bytes. Every other body goes
// through encoding/json, which gives the same request for every body
// the scan accepts, so status codes and error text do not depend on
// the path taken.
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	body, ok := httpbody.Read(w, r, bodyLimit)
	if !ok {
		return
	}
	var inline io.Reader
	req, edges, _, ok := api.ScanRegisterGraph(body)
	if ok {
		if edges = unescapeInPlace(edges); len(edges) > 0 {
			inline = bytes.NewReader(edges)
		}
	} else {
		if !decode(w, bytes.NewReader(body), &req) {
			return
		}
		if req.EdgeList != "" {
			inline = strings.NewReader(req.EdgeList)
		}
	}
	s.registerGraph(w, req, inline)
}

// registerGraph registers req's graph, reading an inline edge list from
// inline, nil when the body set none (req.EdgeList is not read).
func (s *Server) registerGraph(w http.ResponseWriter, req registerGraphRequest, inline io.Reader) {
	if err := api.ValidateGraphName(req.Name); err != nil {
		api.WriteError(w, api.CodeInvalidName, "%v", err)
		return
	}
	sources := 0
	for _, set := range []bool{inline != nil, req.Path != "", req.Snapshot != ""} {
		if set {
			sources++
		}
	}
	if sources != 1 {
		api.WriteError(w, api.CodeBadRequest, "exactly one of edge_list, path and snapshot must be set")
		return
	}
	if req.Snapshot != "" {
		e, err := s.loadSnapshotFile(req.Name, req.Snapshot)
		if err != nil {
			// The duplicate-name check lives inside the registry lock;
			// report it as the same conflict the other sources return.
			code := api.CodeBadRequest
			if errors.Is(err, ErrAlreadyRegistered) {
				code = api.CodeConflict
			}
			api.WriteError(w, code, "importing snapshot: %v", err)
			return
		}
		// Make the import durable in the data dir before the 201: a
		// registration has no WAL record kind, so its durability unit is
		// the checkpoint itself. If that fails the admission rolls back
		// — acknowledging a graph the next boot cannot restore would
		// break the WAL's no-lost-acks contract.
		if err := s.durableAck(req.Name); err != nil {
			s.registry.Remove(req.Name)
			s.cache.EvictGraph(e)
			s.monitors.DropGraph(req.Name)
			api.WriteError(w, api.CodeUnavailable, "%v", err)
			return
		}
		api.WriteJSON(w, http.StatusCreated, e.info())
		return
	}
	var (
		g   *tesc.Graph
		err error
	)
	if inline != nil {
		// Inline bodies are untrusted: cap the universe so a one-line
		// request can't demand an O(n) allocation in the gigabytes.
		// Server-side -load/path graphs stay uncapped.
		g, err = tesc.ReadGraphMax(inline, maxInlineNodes)
	} else {
		var f interface {
			Read([]byte) (int, error)
			Close() error
		}
		f, err = graphio.OpenMaybeGzip(req.Path)
		if err == nil {
			g, err = tesc.ReadGraph(f)
			_ = f.Close()
		}
	}
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "loading graph: %v", err)
		return
	}
	e, err := s.registry.Register(req.Name, g)
	if err != nil {
		api.WriteError(w, api.CodeConflict, "%v", err)
		return
	}
	if err := s.durableAck(req.Name); err != nil {
		s.registry.Remove(req.Name)
		api.WriteError(w, api.CodeUnavailable, "%v", err)
		return
	}
	api.WriteJSON(w, http.StatusCreated, e.info())
}

// handleListGraphs implements GET /v1/graphs.
func (s *Server) handleListGraphs(w http.ResponseWriter, r *http.Request) {
	names := s.registry.Names()
	out := make([]graphInfo, 0, len(names))
	for _, name := range names {
		if e, ok := s.registry.Get(name); ok {
			out = append(out, e.info())
		}
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleGetGraph implements GET /v1/graphs/{name}.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	api.WriteJSON(w, http.StatusOK, e.info())
}

// handleDeleteGraph implements DELETE /v1/graphs/{name}. Cached
// vicinity indexes of the graph are evicted with it.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name, ok := graphName(w, r)
	if !ok {
		return
	}
	removed, err := s.dropGraph(name)
	if err != nil {
		api.WriteError(w, api.CodeUnavailable, "%v", err)
		return
	}
	if !removed {
		api.WriteError(w, api.CodeNotFound, "unknown graph %q", name)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRegisterEvents implements POST /v1/graphs/{name}/events.
func (s *Server) handleRegisterEvents(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req registerEventsRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Events) == 0 && len(req.Remove) == 0 {
		api.WriteError(w, api.CodeBadRequest, "events or remove must be non-empty")
		return
	}
	if err := s.applyEvents(e, req.Events, req.Remove, true); err != nil {
		code := api.CodeBadRequest
		switch {
		case errors.Is(err, errDurability):
			code = api.CodeUnavailable
		case strings.HasPrefix(err.Error(), "unknown event"):
			code = api.CodeNotFound
		}
		api.WriteError(w, code, "%v", err)
		return
	}
	snap := e.Snapshot()
	api.WriteJSON(w, http.StatusOK, registerEventsResponse{Graph: e.Name(), Events: snap.Store.NumEvents(), Epoch: snap.Epoch})
}

// handleDeleteEvent implements DELETE /v1/graphs/{name}/events/{event}:
// removes the event and all its occurrences.
func (s *Server) handleDeleteEvent(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	event := r.PathValue("event")
	if err := s.applyEvents(e, nil, map[string][]int{event: nil}, true); err != nil {
		code := api.CodeNotFound
		if errors.Is(err, errDurability) {
			code = api.CodeUnavailable
		}
		api.WriteError(w, code, "%v", err)
		return
	}
	snap := e.Snapshot()
	api.WriteJSON(w, http.StatusOK, registerEventsResponse{Graph: e.Name(), Events: snap.Store.NumEvents(), Epoch: snap.Epoch})
}

// handleMutateEdges implements POST /v1/graphs/{name}/edges: a live
// edge-mutation batch. The entry publishes a fresh snapshot and every
// cached vicinity index of the graph is migrated by incremental repair
// — bounded BFS around the flipped edges (§4.2's locality) — before the
// new version becomes visible, so index-backed queries keep hitting the
// cache across mutations instead of paying a full O(|V|·BFS) rebuild.
func (s *Server) handleMutateEdges(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req mutateEdgesRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Insert) == 0 && len(req.Delete) == 0 {
		api.WriteError(w, api.CodeBadRequest, "insert or delete must be non-empty")
		return
	}
	changes := make([]tesc.EdgeChange, 0, len(req.Insert)+len(req.Delete))
	for _, p := range req.Insert {
		changes = append(changes, tesc.EdgeChange{U: p[0], V: p[1], Insert: true})
	}
	for _, p := range req.Delete {
		changes = append(changes, tesc.EdgeChange{U: p[0], V: p[1], Insert: false})
	}

	res, err := s.applyEdges(e, changes, true)
	if err != nil {
		code := api.CodeBadRequest
		if errors.Is(err, errDurability) {
			code = api.CodeUnavailable
		}
		api.WriteError(w, code, "%v", err)
		return
	}
	var inserted, deleted int
	for _, c := range res.applied {
		if c.Insert {
			inserted++
		} else {
			deleted++
		}
	}
	api.WriteJSON(w, http.StatusOK, mutateEdgesResponse{
		Graph:            e.Name(),
		Epoch:            res.snap.Epoch,
		Nodes:            res.snap.Graph.NumNodes(),
		Edges:            res.snap.Graph.NumEdges(),
		Inserted:         inserted,
		Deleted:          deleted,
		Skipped:          len(changes) - len(res.applied),
		IndexesRefreshed: res.migrated,
		NodesRecomputed:  res.recomputed,
	})
}

// handleCheckpoint implements POST /v1/graphs/{name}/snapshot: a
// synchronous checkpoint of the graph's current epoch snapshot —
// graph, events, and every cached vicinity index — to the data
// directory. Operators use it to guarantee durability at a known
// point (before a planned restart, after a bulk load) instead of
// waiting for the background debounce.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	if s.persist == nil {
		api.WriteError(w, api.CodeUnavailable, "no data directory configured (start tescd with -data)")
		return
	}
	info, err := s.Checkpoint(e.Name())
	if err != nil {
		api.WriteError(w, api.CodeInternal, "checkpoint: %v", err)
		return
	}
	api.WriteJSON(w, http.StatusOK, info)
}

// handleCorrelate implements POST /v1/graphs/{name}/correlate: one TESC
// test with per-request options, reusing the graph and (for the
// index-backed samplers) the cached vicinity index. Identical requests
// against the same snapshot epoch coalesce into one computation (see
// coalesce.go), and the request's context — carrying any client
// deadline the admission chain attached — propagates into the density
// phase so abandoned queries stop burning BFS work.
func (s *Server) handleCorrelate(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req correlateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	tail, _, err := parseTail(req.Tail)
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	opts := tesc.Options{
		H:               req.H,
		SampleSize:      req.SampleSize,
		Method:          method,
		ImportanceBatch: req.ImportanceBatch,
		Tail:            tail,
		Alpha:           req.Alpha,
		Seed:            req.Seed,
		UseSpearman:     req.UseSpearman,
	}
	// The library's option rules, applied before the flight join and
	// the index fetch, which a refused request would waste: a bad
	// option is a 400, Spearman's ρ over an importance sample a 422.
	if err := opts.Validate(); err != nil {
		code := api.CodeBadRequest
		if errors.Is(err, core.ErrSpearmanWeighted) {
			code = api.CodeUnprocessable
		}
		api.WriteError(w, code, "%v", err)
		return
	}
	// Bind the whole query to one snapshot: occurrences, graph and
	// vicinity index all come from the same epoch even if mutations
	// land while the query runs. The epoch is part of the coalescing
	// key, so a request never adopts a result from another version.
	snap := e.Snapshot()
	if !s.freshEnough(w, e.Name(), snap.Epoch, req.MinEpoch) {
		return
	}
	key := flightKey(e.Name(), snap.Epoch, &req)
	for {
		c, leader := s.flights.join(key)
		if leader {
			s.runCorrelate(r, e, snap, &req, opts, c)
			s.flights.complete(key, c)
			s.writeCorrelateOutcome(w, c)
			return
		}
		s.adm.coalesceHits.Add(1)
		select {
		case <-c.done:
			if c.ctxFail {
				// The leader's client gave up, not ours: loop and
				// re-join; whoever wins the next join recomputes.
				continue
			}
			s.writeCorrelateOutcome(w, c)
			return
		case <-r.Context().Done():
			s.writeCtxOutcome(w, r)
			return
		}
	}
}

// runCorrelate performs the actual correlate computation, filling the
// flight call's outcome fields (it never writes to the wire — the
// leader and every follower render the outcome themselves).
func (s *Server) runCorrelate(r *http.Request, e *GraphEntry, snap Snapshot, req *correlateRequest, opts tesc.Options, c *flightCall) {
	va, vb, code, err := resolveEventPair(snap, req)
	if err != nil {
		c.errCode, c.errMsg = code, err.Error()
		return
	}
	opts.Ctx = r.Context()
	if opts.Method == tesc.Importance || opts.Method == tesc.Rejection {
		idx, err := s.cache.Get(e, snap, req.H, s.indexWorkers)
		if err != nil {
			c.errCode, c.errMsg = api.CodeInternal, fmt.Sprintf("building vicinity index: %v", err)
			return
		}
		opts.Index = idx
		// A pair of registered events keeps its counts across graph
		// versions; inline node lists have no identity to key them by.
		if req.A != "" && req.B != "" {
			if m := e.countMemo(snap, req.A, req.B, req.H); m != nil {
				opts.Counts = core.CountRead{Memo: m, Epoch: snap.Epoch}
			}
		}
	}
	// Pooled BFS engines for this graph version: concurrent queries
	// stop allocating O(|V|) mark arrays each.
	opts.Engines = e.EnginePool(snap)

	start := time.Now()
	res, err := tesc.Correlation(snap.Graph, va, vb, opts)
	if err != nil {
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			c.errCode, c.errMsg, c.ctxFail = api.CodeTimeout, err.Error(), true
		case errors.Is(err, context.Canceled):
			// 499 is the de-facto "client closed request" status; the
			// write is a no-op on the closed connection, but the code
			// keeps the outcome honest in logs and tests.
			c.errCode, c.errMsg, c.ctxFail = api.CodeClientClosed, err.Error(), true
		default:
			c.errCode, c.errMsg = api.CodeUnprocessable, err.Error()
		}
		return
	}
	s.bfsRuns.Add(res.DensityBFS)
	s.memoHits.Add(res.DensityMemoHits)
	c.resp = correlateResponse{
		Tau:         res.Tau,
		Z:           res.Z,
		P:           res.P,
		Significant: res.Significant,
		Verdict:     res.Verdict,
		N:           res.N,
		Sampler:     res.Sampler,
		Population:  res.Population,
		SamplerBFS:  res.SamplerBFS,
		DensityBFS:  res.DensityBFS,
		ElapsedMS:   float64(time.Since(start).Microseconds()) / 1000,
		Epoch:       snap.Epoch,
	}
}

// writeCorrelateOutcome renders a completed flight call to one client.
// Coalesced followers share the leader's response verbatim (including
// ElapsedMS — the computation's cost, paid once).
func (s *Server) writeCorrelateOutcome(w http.ResponseWriter, c *flightCall) {
	switch c.errCode {
	case "":
		api.WriteJSON(w, http.StatusOK, c.resp)
	case api.CodeTimeout:
		s.adm.timeouts.Add(1)
		api.WriteRetryable(w, time.Second, api.CodeTimeout, "%s", c.errMsg)
	default:
		api.WriteError(w, c.errCode, "%s", c.errMsg)
	}
}

// writeCtxOutcome renders a request abandoned by its own context: 504
// for an expired deadline, 499 (best-effort; the connection is gone)
// for a client hang-up.
func (s *Server) writeCtxOutcome(w http.ResponseWriter, r *http.Request) {
	if errors.Is(context.Cause(r.Context()), context.DeadlineExceeded) {
		s.adm.timeouts.Add(1)
		api.WriteRetryable(w, time.Second, api.CodeTimeout,
			"request deadline exceeded while waiting for a coalesced result")
		return
	}
	api.WriteError(w, api.CodeClientClosed, "client closed request")
}

// freshEnough enforces a request's min_epoch floor: a graph still
// behind it (a lagging replica, or a caller racing its own write)
// answers 503 + Retry-After so clients distinguish "retry here
// shortly" from a real failure. The body carries the unified
// backpressure shape (code "stale_epoch") every 429/503 shares.
func (s *Server) freshEnough(w http.ResponseWriter, name string, epoch, minEpoch uint64) bool {
	if minEpoch == 0 || epoch >= minEpoch {
		return true
	}
	api.WriteRetryable(w, time.Second, api.CodeStaleEpoch,
		"graph %q is at epoch %d, request needs %d", name, epoch, minEpoch)
	return false
}

// resolveEventPair turns a correlate request into two occurrence
// lists, from events registered in the snapshot or inline node lists.
// The returned code distinguishes malformed requests (bad_request)
// from unknown events (not_found).
func resolveEventPair(snap Snapshot, req *correlateRequest) (va, vb []int, code api.ErrorCode, err error) {
	switch {
	case req.A != "" && req.NodesA != nil:
		return nil, nil, api.CodeBadRequest, fmt.Errorf("set either a or nodes_a, not both")
	case req.B != "" && req.NodesB != nil:
		return nil, nil, api.CodeBadRequest, fmt.Errorf("set either b or nodes_b, not both")
	}
	va = req.NodesA
	if req.A != "" {
		if va, err = storeOccurrences(snap.Store, req.A); err != nil {
			return nil, nil, api.CodeNotFound, err
		}
	}
	vb = req.NodesB
	if req.B != "" {
		if vb, err = storeOccurrences(snap.Store, req.B); err != nil {
			return nil, nil, api.CodeNotFound, err
		}
	}
	if va == nil || vb == nil {
		return nil, nil, api.CodeBadRequest, fmt.Errorf("both events must be given (a/nodes_a and b/nodes_b)")
	}
	return va, vb, "", nil
}

// handleScreen implements POST /v1/graphs/{name}/screen: an
// asynchronous all-pairs screening sweep over the graph's registered
// events. Returns 202 with a job ID for progress polling. The sweep
// runs on the snapshot's own graph and event store with the entry's
// density memo for the vocabulary and h, pinned to the snapshot's
// epoch, so later jobs reuse every traversal no mutation since has
// invalidated; results are bit-identical to tesc.Screen/ScreenTopK on
// the same events.
func (s *Server) handleScreen(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req screenRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	_, alt, err := parseTail(req.Tail)
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	// A nonzero top_k selects the planner, so a negative one reaches
	// PlanConfig.Normalize and is refused there.
	planned := req.TopK != 0 || req.Theta != nil
	if req.TopK != 0 && req.Theta != nil {
		api.WriteError(w, api.CodeBadRequest, "top_k and theta are mutually exclusive")
		return
	}
	if planned && req.Bonferroni {
		api.WriteError(w, api.CodeBadRequest, "bonferroni requires the exhaustive sweep: a planned screen reports raw p-values")
		return
	}
	if !planned && req.BoundAlpha != 0 {
		api.WriteError(w, api.CodeBadRequest, "bound_alpha applies only to planned screens (set top_k or theta)")
		return
	}
	cfg := screen.PlanConfig{
		Config: screen.Config{
			H:              req.H,
			SampleSize:     req.SampleSize,
			Alpha:          req.Alpha,
			Alternative:    alt,
			MinOccurrences: req.MinOccurrences,
			Workers:        req.Workers,
			Seed:           req.Seed,
		},
		K:          req.TopK,
		BoundAlpha: req.BoundAlpha,
	}
	if cfg.Seed == 0 {
		cfg.Seed = screen.DefaultSeed
	}
	if req.Bonferroni {
		cfg.Correction = screen.FWER
	}
	if req.Theta != nil {
		cfg.Theta = *req.Theta
	}
	// The sweep's own validation, applied before a job slot is taken:
	// a bad request is a 400, never a job.
	if planned {
		cfg, err = cfg.Normalize()
	} else {
		cfg.Config, err = cfg.Config.Normalize()
	}
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	// One snapshot for the whole sweep: a long screening job keeps its
	// consistent graph + event view while mutations continue to land.
	snap := e.Snapshot()
	if !s.freshEnough(w, e.Name(), snap.Epoch, req.MinEpoch) {
		return
	}
	if n := snap.Store.NumEvents(); n < 2 {
		api.WriteError(w, api.CodeUnprocessable, "screening needs at least 2 registered events, have %d", n)
		return
	}
	// A screen job holds a background admission slot for its whole
	// lifetime — the middleware only applied quota/drain/deadline for
	// this class (classBackgroundJob), so the concurrency bound is
	// claimed here and released when the job finishes. At saturation
	// the job is shed with a typed 503 before any work is spent.
	release, ok := s.adm.acquireJobSlot()
	if !ok {
		api.WriteRetryable(w, 2*time.Second, api.CodeOverloadedBG,
			"background capacity exhausted (%d screen/monitor tasks in flight)", s.adm.bg.inflight())
		return
	}
	g, store := snap.Graph.Internal(), snap.Store
	pairs := screen.AllPairs(store, cfg.MinOccurrences)
	memo, unpin := e.lendMemo(store.Names(), req.H, snap.Epoch)
	cfg.Memo = memo
	cfg.Engines = e.EnginePool(snap).Internal()
	// The job runs under the tracker's cancellable context, NOT
	// r.Context(): the handler returns at the 202 and Go cancels the
	// request context with it, which must not kill the async sweep.
	// Cancellation comes from DELETE /v1/jobs/{id} or server drain.
	job := s.jobs.Start(e.Name(), release, func(ctx context.Context, j *Job) (*ScreenResultView, error) {
		defer unpin()
		cfg.Ctx = ctx
		cfg.Progress = j.setProgress
		if !planned {
			res, err := screen.Run(g, store, pairs, cfg.Config)
			if err == nil {
				s.bfsRuns.Add(res.BFSRuns)
				s.memoHits.Add(res.MemoHits)
			}
			return screenResultView(res), err
		}
		cfg.Stream = j.setPartial
		res, err := screen.Plan(g, store, pairs, cfg)
		if err == nil {
			s.bfsRuns.Add(res.Stats.BFSRuns)
			s.memoHits.Add(res.Stats.MemoHits)
			s.screensPlanned.Add(1)
			s.pairsPruned.Add(int64(res.Stats.PrunedEarly + res.Stats.PrunedPrior))
		}
		return plannedResultView(res), err
	})
	api.WriteJSON(w, http.StatusAccepted, screenResponse{JobID: job.ID})
}

// handleGetJob implements GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		api.WriteError(w, api.CodeNotFound, "unknown job %q", id)
		return
	}
	api.WriteJSON(w, http.StatusOK, j.Snapshot())
}

// handleCancelJob implements DELETE /v1/jobs/{id}: aborts a running
// screening job. The sweep observes the cancellation at its next
// per-pair check and the job lands in "cancelled" (planned jobs keep
// the ranking over the pairs they finished under "partial").
// Cancelling an already-finished job is a no-op; the response is the
// job's current view either way, so clients can poll the transition.
func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		api.WriteError(w, api.CodeNotFound, "unknown job %q", id)
		return
	}
	j.cancel()
	api.WriteJSON(w, http.StatusAccepted, j.Snapshot())
}

// handleHealth implements GET /healthz.
func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	var walAppends, walFsyncs int64
	if s.persist != nil {
		if lg := s.persist.log(); lg != nil {
			walAppends = lg.Appends()
			walFsyncs = lg.Fsyncs()
		}
	}
	health := api.Health{
		Status:               "ok",
		Graphs:               len(s.registry.Names()),
		Indexes:              s.cache.Len(),
		IndexBuilt:           s.cache.Builds(),
		IndexRefreshed:       s.cache.Refreshes(),
		IndexNodesRecomputed: s.cache.NodesRecomputed(),
		SnapshotSaved:        s.snapSaved.Load(),
		SnapshotLoaded:       s.snapLoaded.Load(),
		BFSRuns:              s.bfsRuns.Load(),
		DensityMemoHits:      s.memoHits.Load(),
		ScreensPlanned:       s.screensPlanned.Load(),
		ScreenPairsPruned:    s.pairsPruned.Load(),
		MonitorsActive:       s.monitors.Active(),
		MonitorReruns:        s.monitors.Reruns(),
		MonitorNodesReused:   s.monitors.NodesReused(),
		WALAppends:           walAppends,
		WALFsyncs:            walFsyncs,
		WALReplayed:          s.walReplayed.Load(),
		RecoveryEpoch:        s.recoveryEpoch.Load(),
		RecordsShipped:       s.recordsShipped.Load(),
		// SLO is the overload-protection section: per-class latency
		// quantiles (upper bucket bounds, ms) plus shed/quota/timeout/
		// coalesce accounting — the live view the bench gate holds tail
		// latency against. See docs/OVERLOAD.md.
		SLO:      s.adm.sloView(),
		ReadOnly: s.readOnly,
	}
	if f := s.follower; f != nil {
		m := f.Metrics()
		health.ReplicaHealth = &api.ReplicaHealth{
			ReplicaLagEpochs:  m.LagEpochs,
			RecordsApplied:    m.RecordsApplied,
			RecordsSkipped:    m.RecordsSkipped,
			ReplicaPulls:      m.Pulls,
			ReplicaBootstraps: m.Bootstraps,
			ReplicaDiscards:   m.Discards,
			ReplicaFaults:     m.Faults,
		}
	}
	api.WriteJSON(w, http.StatusOK, health)
}
