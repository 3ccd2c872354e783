package server

import (
	"errors"
	"net/http"
	"time"

	"tesc"
	"tesc/api"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/monitor"
)

// ---- wire types -----------------------------------------------------

// The monitor wire shapes live in the public api package; the aliases
// keep this file's conversion helpers reading naturally.
type (
	createMonitorRequest = api.CreateMonitorRequest
	rankedPairView       = api.RankedPair
	monitorSampleView    = api.MonitorSample
	monitorView          = api.MonitorView
	monitorDetailView    = api.MonitorDetail
)

func sampleView(s monitor.Sample) monitorSampleView {
	v := monitorSampleView{
		Epoch:       s.Epoch,
		At:          s.At,
		Batches:     s.Batches,
		Tau:         s.Tau,
		Z:           s.Z,
		P:           s.P,
		Significant: s.Significant,
		Skipped:     s.Skipped,
		Reused:      s.Reused,
		Recomputed:  s.Recomputed,
		ElapsedMS:   s.ElapsedMS,
	}
	if len(s.Top) > 0 {
		v.Top = make([]rankedPairView, len(s.Top))
		for i, p := range s.Top {
			v.Top[i] = rankedPairView{
				A: p.A, B: p.B,
				Tau: p.Tau, Z: p.Z, P: p.P,
				Significant: p.Significant,
			}
		}
	}
	return v
}

func (s *Server) monitorInfo(m *monitor.Monitor) monitorView {
	def := m.Def()
	v := monitorView{
		ID:             def.ID,
		Graph:          m.GraphName(),
		A:              def.A,
		B:              def.B,
		TopK:           def.TopK,
		MinOccurrences: def.MinOccurrences,
		H:              def.H,
		SampleSize:     def.SampleSize,
		Alpha:          def.Alpha,
		Tail:           tailName(def.Alternative),
		Seed:           def.Seed,
		Policy:         def.Mode.String(),
		DebounceMS:     def.Debounce.Milliseconds(),
		HistoryCap:     def.HistoryCap,
		Pending:        m.Pending(),
	}
	if last, ok := m.Last(); ok {
		sv := sampleView(last)
		v.Last = &sv
	}
	return v
}

// ---- mutation-path plumbing ----------------------------------------

// entrySnapshotFunc adapts a registry entry to the monitor package's
// snapshot source: one consistent (graph, store, epoch) triple per
// call, with the entry's engine pool for that graph version.
func entrySnapshotFunc(e *GraphEntry) monitor.SnapshotFunc {
	return func() (*graph.Graph, *events.Store, uint64, *graph.EnginePool) {
		snap := e.Snapshot()
		return snap.Graph.Internal(), snap.Store, snap.Epoch, e.EnginePool(snap).Internal()
	}
}

// internalChanges converts public edge changes to the internal type.
func internalChanges(changes []tesc.EdgeChange) []graph.EdgeChange {
	out := make([]graph.EdgeChange, len(changes))
	for i, c := range changes {
		out[i] = graph.EdgeChange{U: graph.NodeID(c.U), V: graph.NodeID(c.V), Insert: c.Insert}
	}
	return out
}

// ---- handlers -------------------------------------------------------

// handleCreateMonitor implements POST /v1/graphs/{name}/monitors: it
// registers a standing query and runs its baseline screen
// synchronously, so the 201 response already carries a result at the
// current epoch.
func (s *Server) handleCreateMonitor(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	var req createMonitorRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	_, alt, err := parseTail(req.Tail)
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	mode, err := monitor.ParseMode(req.Policy)
	if err != nil {
		api.WriteError(w, api.CodeBadRequest, "%v", err)
		return
	}
	snap := e.Snapshot()
	for _, name := range []string{req.A, req.B} {
		if name != "" && !snap.Store.Has(name) {
			api.WriteError(w, api.CodeNotFound, "unknown event %q", name)
			return
		}
	}
	def := monitor.Definition{
		ID:             req.ID,
		A:              req.A,
		B:              req.B,
		TopK:           req.TopK,
		MinOccurrences: req.MinOccurrences,
		H:              req.H,
		SampleSize:     req.SampleSize,
		Alpha:          req.Alpha,
		Alternative:    alt,
		Seed:           req.Seed,
		Mode:           mode,
		Debounce:       time.Duration(req.DebounceMS) * time.Millisecond,
		HistoryCap:     req.History,
	}
	m, err := s.monitors.Create(e.Name(), def, entrySnapshotFunc(e), e.lendMemo)
	if err != nil {
		code := api.CodeBadRequest
		if errors.Is(err, monitor.ErrAlreadyRegistered) {
			code = api.CodeConflict
		}
		api.WriteError(w, code, "%v", err)
		return
	}
	// A monitor has no WAL record kind: its durability unit is the
	// graph's snapshot (monitor states persist in the MNTR section), so
	// the create checkpoints synchronously before the 201. On failure
	// the monitor rolls back — an acknowledged standing query must
	// survive a crash.
	if err := s.durableAck(e.Name()); err != nil {
		s.monitors.Delete(e.Name(), m.Def().ID)
		api.WriteError(w, api.CodeUnavailable, "%v", err)
		return
	}
	api.WriteJSON(w, http.StatusCreated, s.monitorInfo(m))
}

// handleListMonitors implements GET /v1/graphs/{name}/monitors.
func (s *Server) handleListMonitors(w http.ResponseWriter, r *http.Request) {
	e, ok := s.entry(w, r)
	if !ok {
		return
	}
	ms := s.monitors.List(e.Name())
	out := make([]monitorView, 0, len(ms))
	for _, m := range ms {
		out = append(out, s.monitorInfo(m))
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// monitorByPath resolves {name}/{id} to a registered monitor.
func (s *Server) monitorByPath(w http.ResponseWriter, r *http.Request) (*monitor.Monitor, *GraphEntry, bool) {
	e, ok := s.entry(w, r)
	if !ok {
		return nil, nil, false
	}
	id := r.PathValue("id")
	m, ok := s.monitors.Get(e.Name(), id)
	if !ok {
		api.WriteError(w, api.CodeNotFound, "graph %q has no monitor %q", e.Name(), id)
		return nil, nil, false
	}
	return m, e, true
}

// handleGetMonitor implements GET /v1/graphs/{name}/monitors/{id}:
// definition, pending-delta count, and the full history ring.
func (s *Server) handleGetMonitor(w http.ResponseWriter, r *http.Request) {
	m, _, ok := s.monitorByPath(w, r)
	if !ok {
		return
	}
	hist := m.History()
	detail := monitorDetailView{MonitorView: s.monitorInfo(m), History: make([]monitorSampleView, len(hist))}
	for i, smp := range hist {
		detail.History[i] = sampleView(smp)
	}
	api.WriteJSON(w, http.StatusOK, detail)
}

// handleDeleteMonitor implements DELETE /v1/graphs/{name}/monitors/{id}.
func (s *Server) handleDeleteMonitor(w http.ResponseWriter, r *http.Request) {
	m, e, ok := s.monitorByPath(w, r)
	if !ok {
		return
	}
	s.monitors.Delete(e.Name(), m.Def().ID)
	// Persist the deletion before the 204; a failed checkpoint still
	// deleted the monitor in memory (delete is idempotent — replaying
	// it at the next boot is the snapshot's job, not the client's), so
	// only the durability failure is surfaced.
	if err := s.durableAck(e.Name()); err != nil {
		api.WriteError(w, api.CodeUnavailable, "%v", err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleRefreshMonitor implements POST
// /v1/graphs/{name}/monitors/{id}/refresh: a synchronous drain —
// pending deltas are folded into one re-screen now. With ?force=1 the
// monitor re-screens even when nothing is pending (clients of manual
// monitors use it to re-evaluate on their own clock). Responds with
// the monitor detail; 200 when a re-screen ran, 204-equivalent body
// (ran=false) otherwise.
func (s *Server) handleRefreshMonitor(w http.ResponseWriter, r *http.Request) {
	m, e, ok := s.monitorByPath(w, r)
	if !ok {
		return
	}
	force := r.URL.Query().Get("force") == "1" || r.URL.Query().Get("force") == "true"
	_, ran, err := m.Refresh(force)
	if err != nil {
		api.WriteError(w, api.CodeUnprocessable, "%v", err)
		return
	}
	if ran {
		s.markDirty(e.Name())
	}
	api.WriteJSON(w, http.StatusOK, api.MonitorRefreshResponse{Ran: ran, MonitorView: s.monitorInfo(m)})
}
