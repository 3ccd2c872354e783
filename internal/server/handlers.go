package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/graphio"
	"tesc/internal/screen"
	"tesc/internal/wal"
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

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// writeError emits the unified error envelope (api.Error) under the
// code's canonical HTTP status. Every non-2xx response a handler
// produces goes through here or writeRetryable — there is exactly one
// error body shape on the wire.
func writeError(w http.ResponseWriter, code api.ErrorCode, format string, args ...any) {
	writeJSON(w, api.StatusOf(code), &api.Error{Code: code, Reason: fmt.Sprintf(format, args...)})
}

func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		writeError(w, api.CodeBadRequest, "invalid request body: %v", err)
		return false
	}
	return true
}

// graphName extracts and validates the {name} path value. Names that do
// not round-trip URL escaping are rejected at the router with a typed
// 400: such a name can never have been registered (creation enforces
// the same rule), and in a cluster it is the routing key a coordinator
// proxies on, so it must be byte-transparent through any proxy hop.
func graphName(w http.ResponseWriter, r *http.Request) (string, bool) {
	name := r.PathValue("name")
	if err := api.ValidateGraphName(name); err != nil {
		writeError(w, api.CodeInvalidName, "%v", err)
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
		writeError(w, api.CodeNotFound, "unknown graph %q", name)
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

func parseTail(s string) (tesc.Tail, error) {
	switch s {
	case "", "both":
		return tesc.BothTails, nil
	case "positive":
		return tesc.PositiveTail, nil
	case "negative":
		return tesc.NegativeTail, nil
	default:
		return 0, fmt.Errorf("unknown tail %q (both | positive | negative)", s)
	}
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

// handleRegisterGraph implements POST /v1/graphs.
func (s *Server) handleRegisterGraph(w http.ResponseWriter, r *http.Request) {
	var req registerGraphRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if err := api.ValidateGraphName(req.Name); err != nil {
		writeError(w, api.CodeInvalidName, "%v", err)
		return
	}
	sources := 0
	for _, src := range []string{req.EdgeList, req.Path, req.Snapshot} {
		if src != "" {
			sources++
		}
	}
	if sources != 1 {
		writeError(w, api.CodeBadRequest, "exactly one of edge_list, path and snapshot must be set")
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
			writeError(w, code, "importing snapshot: %v", err)
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
			writeError(w, api.CodeUnavailable, "%v", err)
			return
		}
		writeJSON(w, http.StatusCreated, e.info())
		return
	}
	var (
		g   *tesc.Graph
		err error
	)
	if req.EdgeList != "" {
		// Inline bodies are untrusted: cap the universe so a one-line
		// request can't demand an O(n) allocation in the gigabytes.
		// Server-side -load/path graphs stay uncapped.
		g, err = tesc.ReadGraphMax(strings.NewReader(req.EdgeList), maxInlineNodes)
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
		writeError(w, api.CodeBadRequest, "loading graph: %v", err)
		return
	}
	e, err := s.registry.Register(req.Name, g)
	if err != nil {
		writeError(w, api.CodeConflict, "%v", err)
		return
	}
	if err := s.durableAck(req.Name); err != nil {
		s.registry.Remove(req.Name)
		writeError(w, api.CodeUnavailable, "%v", err)
		return
	}
	writeJSON(w, http.StatusCreated, e.info())
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
	writeJSON(w, http.StatusOK, out)
}

// handleGetGraph implements GET /v1/graphs/{name}.
func (s *Server) handleGetGraph(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, e.info())
}

// handleDeleteGraph implements DELETE /v1/graphs/{name}. Cached
// vicinity indexes of the graph are evicted with it.
func (s *Server) handleDeleteGraph(w http.ResponseWriter, r *http.Request) {
	name, ok := graphName(w, r)
	if !ok {
		return
	}
	if cur, ok := s.registry.Get(name); ok {
		// Log the drop before removing anything: a crash right after
		// the registry removal must not let this generation's WAL
		// records replay into a future graph registered under the same
		// name. A spurious drop record (the Get/Remove race losing to
		// another DELETE) is harmless — replay only skips records.
		if err := s.walAppend(&wal.Record{Kind: wal.KindDrop, Graph: name, Epoch: cur.Epoch()}); err != nil {
			writeError(w, api.CodeUnavailable, "durability unavailable: wal append: %v", err)
			return
		}
	}
	e, removed := s.registry.Remove(name)
	if !removed {
		writeError(w, api.CodeNotFound, "unknown graph %q", name)
		return
	}
	s.cache.EvictGraph(e)
	s.monitors.DropGraph(name)
	s.removeSnapshot(name)
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
		writeError(w, api.CodeBadRequest, "events or remove must be non-empty")
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
		writeError(w, code, "%v", err)
		return
	}
	snap := e.Snapshot()
	writeJSON(w, http.StatusOK, registerEventsResponse{Graph: e.Name(), Events: snap.Store.NumEvents(), Epoch: snap.Epoch})
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
		writeError(w, code, "%v", err)
		return
	}
	snap := e.Snapshot()
	writeJSON(w, http.StatusOK, registerEventsResponse{Graph: e.Name(), Events: snap.Store.NumEvents(), Epoch: snap.Epoch})
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
		writeError(w, api.CodeBadRequest, "insert or delete must be non-empty")
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
		writeError(w, code, "%v", err)
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
	writeJSON(w, http.StatusOK, mutateEdgesResponse{
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
		writeError(w, api.CodeUnavailable, "no data directory configured (start tescd with -data)")
		return
	}
	info, err := s.Checkpoint(e.Name())
	if err != nil {
		writeError(w, api.CodeInternal, "checkpoint: %v", err)
		return
	}
	writeJSON(w, http.StatusOK, info)
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
	if req.H < 1 {
		writeError(w, api.CodeBadRequest, "h must be >= 1")
		return
	}
	method, err := parseMethod(req.Method)
	if err != nil {
		writeError(w, api.CodeBadRequest, "%v", err)
		return
	}
	tail, err := parseTail(req.Tail)
	if err != nil {
		writeError(w, api.CodeBadRequest, "%v", err)
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
			s.runCorrelate(r, e, snap, &req, method, tail, c)
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
func (s *Server) runCorrelate(r *http.Request, e *GraphEntry, snap Snapshot, req *correlateRequest, method tesc.Method, tail tesc.Tail, c *flightCall) {
	va, vb, code, err := resolveEventPair(snap, req)
	if err != nil {
		c.errCode, c.errMsg = code, err.Error()
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
		Ctx:             r.Context(),
	}
	if method == tesc.Importance || method == tesc.Rejection {
		idx, err := s.cache.Get(e, snap, req.H, s.indexWorkers)
		if err != nil {
			c.errCode, c.errMsg = api.CodeInternal, fmt.Sprintf("building vicinity index: %v", err)
			return
		}
		opts.Index = idx
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
		writeJSON(w, http.StatusOK, c.resp)
	case api.CodeTimeout:
		s.adm.timeouts.Add(1)
		writeRetryable(w, time.Second, api.CodeTimeout, "%s", c.errMsg)
	default:
		writeError(w, c.errCode, "%s", c.errMsg)
	}
}

// writeCtxOutcome renders a request abandoned by its own context: 504
// for an expired deadline, 499 (best-effort; the connection is gone)
// for a client hang-up.
func (s *Server) writeCtxOutcome(w http.ResponseWriter, r *http.Request) {
	if errors.Is(context.Cause(r.Context()), context.DeadlineExceeded) {
		s.adm.timeouts.Add(1)
		writeRetryable(w, time.Second, api.CodeTimeout,
			"request deadline exceeded while waiting for a coalesced result")
		return
	}
	writeError(w, api.CodeClientClosed, "client closed request")
}

// freshEnough enforces a request's min_epoch floor: a graph still
// behind it (a lagging replica, or a caller racing its own write)
// answers 503 + Retry-After so clients distinguish "retry here
// shortly" from a real failure. The error wraps screen.ErrStaleEpoch —
// the same staleness signal the screening engine raises when a pinned
// snapshot falls behind — and the body carries the unified
// backpressure shape (reason "stale_epoch") every 429/503 shares.
func (s *Server) freshEnough(w http.ResponseWriter, name string, epoch, minEpoch uint64) bool {
	if minEpoch == 0 || epoch >= minEpoch {
		return true
	}
	writeRetryable(w, time.Second, api.CodeStaleEpoch,
		"%v: graph %q is at epoch %d, request needs %d", screen.ErrStaleEpoch, name, epoch, minEpoch)
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
// events. Returns 202 with a job ID for progress polling.
func (s *Server) handleScreen(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req screenRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.H < 1 {
		writeError(w, api.CodeBadRequest, "h must be >= 1")
		return
	}
	tail, err := parseTail(req.Tail)
	if err != nil {
		writeError(w, api.CodeBadRequest, "%v", err)
		return
	}
	if req.TopK < 0 {
		writeError(w, api.CodeBadRequest, "top_k must be >= 0")
		return
	}
	planned := req.TopK > 0 || req.Theta != nil
	if req.TopK > 0 && req.Theta != nil {
		writeError(w, api.CodeBadRequest, "top_k and theta are mutually exclusive")
		return
	}
	if req.Theta != nil && (*req.Theta < -1 || *req.Theta > 1) {
		writeError(w, api.CodeBadRequest, "theta must lie in [-1, 1]")
		return
	}
	if planned && req.Bonferroni {
		writeError(w, api.CodeBadRequest, "bonferroni requires the exhaustive sweep: a planned screen reports raw p-values")
		return
	}
	if !planned && req.BoundAlpha != 0 {
		writeError(w, api.CodeBadRequest, "bound_alpha applies only to planned screens (set top_k or theta)")
		return
	}
	// The sweep's own validation of alpha and sample_size, applied
	// before a job slot is taken: a bad request is a 400, never a job.
	if err := (screen.Config{H: req.H, SampleSize: req.SampleSize, Alpha: req.Alpha}).Validate(); err != nil {
		writeError(w, api.CodeBadRequest, "%v", err)
		return
	}
	// One snapshot for the whole sweep: a long screening job keeps its
	// consistent graph + event view while mutations continue to land.
	snap := e.Snapshot()
	if !s.freshEnough(w, e.Name(), snap.Epoch, req.MinEpoch) {
		return
	}
	ev := eventSetOf(snap.Store)
	if len(ev) < 2 {
		writeError(w, api.CodeUnprocessable, "screening needs at least 2 registered events, have %d", len(ev))
		return
	}
	g := snap.Graph
	opts := tesc.ScreenOptions{
		H:              req.H,
		SampleSize:     req.SampleSize,
		Alpha:          req.Alpha,
		Tail:           tail,
		MinOccurrences: req.MinOccurrences,
		Bonferroni:     req.Bonferroni,
		Workers:        req.Workers,
		Seed:           req.Seed,
	}
	opts.Engines = e.EnginePool(snap)
	// A screen job holds a background admission slot for its whole
	// lifetime — the middleware only applied quota/drain/deadline for
	// this class (classBackgroundJob), so the concurrency bound is
	// claimed here and released when the job finishes. At saturation
	// the job is shed with a typed 503 before any work is spent.
	release, ok := s.adm.acquireJobSlot()
	if !ok {
		writeRetryable(w, 2*time.Second, api.CodeOverloadedBG,
			"background capacity exhausted (%d screen/monitor tasks in flight)", s.adm.bg.inflight())
		return
	}
	// The job runs under the tracker's cancellable context, NOT
	// r.Context(): the handler returns at the 202 and Go cancels the
	// request context with it, which must not kill the async sweep.
	// Cancellation comes from DELETE /v1/jobs/{id} or server drain.
	if planned {
		popts := tesc.ScreenTopKOptions{
			ScreenOptions: opts,
			K:             req.TopK,
			BoundAlpha:    req.BoundAlpha,
		}
		if req.Theta != nil {
			popts.Theta = *req.Theta
		}
		job := s.jobs.StartPlanned(e.Name(), release, func(ctx context.Context, j *Job) (tesc.ScreenTopKResult, error) {
			popts.Ctx = ctx
			popts.Progress = j.setProgress
			popts.Stream = j.setPartial
			res, err := tesc.ScreenTopK(g, ev, popts)
			if err == nil {
				s.bfsRuns.Add(res.BFSRuns)
				s.memoHits.Add(res.MemoHits)
				s.screensPlanned.Add(1)
				s.pairsPruned.Add(int64(res.PrunedEarly + res.PrunedPrior))
			}
			return res, err
		})
		writeJSON(w, http.StatusAccepted, screenResponse{JobID: job.ID})
		return
	}
	job := s.jobs.Start(e.Name(), release, func(ctx context.Context, progress func(done, total int)) (tesc.ScreenResult, error) {
		opts.Ctx = ctx
		opts.Progress = progress
		res, err := tesc.Screen(g, ev, opts)
		if err == nil {
			s.bfsRuns.Add(res.BFSRuns)
			s.memoHits.Add(res.MemoHits)
		}
		return res, err
	})
	writeJSON(w, http.StatusAccepted, screenResponse{JobID: job.ID})
}

// handleGetJob implements GET /v1/jobs/{id}.
func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	j, ok := s.jobs.Get(id)
	if !ok {
		writeError(w, api.CodeNotFound, "unknown job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, j.Snapshot())
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
		writeError(w, api.CodeNotFound, "unknown job %q", id)
		return
	}
	j.cancel()
	writeJSON(w, http.StatusAccepted, j.Snapshot())
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
		ReadOnly: s.readOnly.Load(),
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
	writeJSON(w, http.StatusOK, health)
}
