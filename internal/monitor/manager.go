package monitor

import (
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tesc/internal/graph"
	"tesc/internal/vicinity"
)

// ErrAlreadyRegistered is wrapped by the error Create and Restore
// return when the graph already has a monitor with the definition's ID.
var ErrAlreadyRegistered = errors.New("already registered")

// Manager is the registry and scheduler of standing queries across
// all graphs of a serving tier. The mutation path notifies it with
// per-delta dirty sets; it fans each delta out to the graph's
// monitors, which coalesce and re-screen per their policies.
type Manager struct {
	mu     sync.Mutex
	graphs map[string]*graphMonitors
	nextID int64

	reruns      atomic.Int64
	nodesReused atomic.Int64
}

// graphMonitors is one graph's standing queries plus the notification
// watermark closing the registration race: notifiedEpoch is the
// highest target epoch any delta notification for this graph has
// carried. A notification lists the registered monitors before its
// mutation publishes; a monitor registered AFTER that listing but
// whose baseline binds the still-published older snapshot would miss
// the delta and serve a silently stale cache. Queuing every new
// monitor a catch-all invalidation at the watermark makes the miss
// impossible: either the baseline already saw the post-mutation epoch,
// or the catch-all resets the cache once it does.
type graphMonitors struct {
	monitors      []*Monitor // registration order
	notifiedEpoch uint64
}

// NewManager returns an empty manager.
func NewManager() *Manager {
	return &Manager{graphs: make(map[string]*graphMonitors)}
}

// Create validates the definition, registers a monitor for the named
// graph, and runs its baseline screen synchronously at the current
// snapshot — the registration response carries a real result, and the
// density cache is warm before the first delta arrives. An empty
// Definition.ID gets a generated one.
func (mgr *Manager) Create(graphName string, def Definition, snap SnapshotFunc) (*Monitor, error) {
	m, err := mgr.add(graphName, State{Def: def}, snap)
	if err != nil {
		return nil, err
	}
	if _, _, err := m.Refresh(true); err != nil {
		mgr.Delete(graphName, m.def.ID)
		return nil, err
	}
	return m, nil
}

// Restore registers a monitor from persisted state without running a
// baseline: the history ring continues where the snapshot left off,
// and the (deliberately unpersisted) density cache refills on the
// first re-screen.
func (mgr *Manager) Restore(graphName string, st State, snap SnapshotFunc) (*Monitor, error) {
	if st.Def.ID == "" {
		return nil, fmt.Errorf("monitor: restored state needs an ID")
	}
	return mgr.add(graphName, st, snap)
}

func (mgr *Manager) add(graphName string, st State, snap SnapshotFunc) (*Monitor, error) {
	if graphName == "" {
		return nil, fmt.Errorf("monitor: empty graph name")
	}
	if snap == nil {
		return nil, fmt.Errorf("monitor: nil snapshot source")
	}
	def := st.Def
	if err := def.Normalize(); err != nil {
		return nil, err
	}
	g, store, _, _ := snap()
	m := &Monitor{def: def, graph: graphName, snap: snap, mgr: mgr, nodes: g.NumNodes()}
	if err := m.bindMemo(g, store); err != nil {
		return nil, err
	}
	if len(st.History) > 0 {
		h := append([]Sample(nil), st.History...)
		sortSamples(h)
		if len(h) > def.HistoryCap {
			h = h[len(h)-def.HistoryCap:]
		}
		m.history = h
	}

	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if def.ID == "" {
		mgr.nextID++
		def.ID = "mon-" + strconv.FormatInt(mgr.nextID, 10)
		m.def.ID = def.ID
	} else if n, ok := parseGeneratedID(def.ID); ok && n > mgr.nextID {
		// Keep generated IDs collision-free across a restore.
		mgr.nextID = n
	}
	gm := mgr.graphs[graphName]
	if gm == nil {
		gm = &graphMonitors{}
		mgr.graphs[graphName] = gm
	}
	for _, other := range gm.monitors {
		if other.def.ID == def.ID {
			return nil, fmt.Errorf("monitor: %q %w for graph %q", def.ID, ErrAlreadyRegistered, graphName)
		}
	}
	if gm.notifiedEpoch > 0 {
		// A mutation may have been notified to the pre-registration
		// monitor list and not yet published; the catch-all guarantees
		// this monitor's cache is reset once that epoch is visible
		// (it drains as a no-op if the baseline already binds it).
		m.enqueue(pendingDelta{epoch: gm.notifiedEpoch, all: true})
	}
	gm.monitors = append(gm.monitors, m)
	return m, nil
}

func parseGeneratedID(id string) (int64, bool) {
	s, ok := strings.CutPrefix(id, "mon-")
	if !ok {
		return 0, false
	}
	n, err := strconv.ParseInt(s, 10, 64)
	return n, err == nil && n > 0
}

// Get returns the monitor registered for the graph under the ID.
func (mgr *Manager) Get(graphName, id string) (*Monitor, bool) {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if gm := mgr.graphs[graphName]; gm != nil {
		for _, m := range gm.monitors {
			if m.def.ID == id {
				return m, true
			}
		}
	}
	return nil, false
}

// List returns the graph's monitors in registration order.
func (mgr *Manager) List(graphName string) []*Monitor {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	if gm := mgr.graphs[graphName]; gm != nil {
		return append([]*Monitor(nil), gm.monitors...)
	}
	return nil
}

// listAndMark snapshots the graph's monitor list and advances its
// notification watermark in one critical section, so a registration
// can never slip between the two.
func (mgr *Manager) listAndMark(graphName string, targetEpoch uint64) []*Monitor {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	gm := mgr.graphs[graphName]
	if gm == nil {
		// Remember the watermark even with no monitors yet: one could
		// register before this mutation publishes.
		mgr.graphs[graphName] = &graphMonitors{notifiedEpoch: targetEpoch}
		return nil
	}
	if targetEpoch > gm.notifiedEpoch {
		gm.notifiedEpoch = targetEpoch
	}
	return append([]*Monitor(nil), gm.monitors...)
}

// States snapshots every monitor of the graph for persistence, in
// registration order.
func (mgr *Manager) States(graphName string) []State {
	out := []State{}
	for _, m := range mgr.List(graphName) {
		out = append(out, m.State())
	}
	return out
}

// Delete removes one monitor, stopping its scheduler.
func (mgr *Manager) Delete(graphName, id string) bool {
	mgr.mu.Lock()
	var victim *Monitor
	if gm := mgr.graphs[graphName]; gm != nil {
		for i, m := range gm.monitors {
			if m.def.ID == id {
				victim = m
				gm.monitors = append(gm.monitors[:i:i], gm.monitors[i+1:]...)
				break
			}
		}
	}
	mgr.mu.Unlock()
	if victim == nil {
		return false
	}
	victim.close()
	return true
}

// DropGraph removes every monitor of a deregistered graph, returning
// how many were dropped.
func (mgr *Manager) DropGraph(graphName string) int {
	mgr.mu.Lock()
	var ms []*Monitor
	if gm := mgr.graphs[graphName]; gm != nil {
		ms = gm.monitors
	}
	delete(mgr.graphs, graphName)
	mgr.mu.Unlock()
	for _, m := range ms {
		m.close()
	}
	return len(ms)
}

// Active returns the number of registered monitors across all graphs.
func (mgr *Manager) Active() int {
	mgr.mu.Lock()
	defer mgr.mu.Unlock()
	n := 0
	for _, gm := range mgr.graphs {
		n += len(gm.monitors)
	}
	return n
}

// Reruns returns the number of delta-triggered re-screens completed.
func (mgr *Manager) Reruns() int64 { return mgr.reruns.Load() }

// NodesReused returns the total reference-node density evaluations
// served from retained caches across all re-screens — the incremental
// scheduler's savings metric (healthz monitor_nodes_reused).
func (mgr *Manager) NodesReused() int64 { return mgr.nodesReused.Load() }

// NotifyEdgeDelta queues an edge-mutation delta for every monitor of
// the graph. targetEpoch is the epoch the mutation publishes; callers
// on a serialized mutation path should notify BEFORE publication so no
// re-screen can bind the new snapshot without seeing its invalidation.
//
// surfacedDirty, when non-nil, is the flipped-vicinity node set an
// index repair already computed for this delta (ApplyDeltaDirty) at
// depth surfacedLevel; it is reused when it covers every monitor's
// level, otherwise the dirty ball is recomputed once at the deepest
// monitored level on engines borrowed from oldEngines and newEngines,
// the pools of the two graph versions. If the dirty set cannot be
// established the monitors fall back to full invalidation —
// correctness never depends on locality, only speed does.
func (mgr *Manager) NotifyEdgeDelta(graphName string, oldG, newG *graph.Graph, oldEngines, newEngines *graph.EnginePool, changes []graph.EdgeChange, targetEpoch uint64, surfacedDirty []graph.NodeID, surfacedLevel int) {
	if len(changes) == 0 {
		return
	}
	monitors := mgr.listAndMark(graphName, targetEpoch)
	if len(monitors) == 0 {
		return
	}
	maxH := 0
	for _, m := range monitors {
		maxH = max(maxH, m.def.H)
	}
	d := pendingDelta{epoch: targetEpoch, batches: 1}
	switch {
	case surfacedDirty != nil && surfacedLevel >= maxH:
		d.dirty = surfacedDirty
	default:
		dirty, err := vicinity.DirtySet(oldG, newG, changes, maxH, oldEngines, newEngines)
		if err != nil {
			d.all = true
		} else {
			d.dirty = dirty
		}
	}
	for _, m := range monitors {
		m.notify(d)
	}
}

// NotifyEventDelta queues an event-mutation delta: changed maps event
// names to the occurrence nodes added or removed (for a whole-event
// removal, every former occurrence). Only monitors whose pair touches
// a changed event are affected — except watchlists, which rank the
// whole vocabulary and so are affected by every event mutation. The
// dirty set is the reverse h-ball around the changed nodes — exactly
// the reference nodes whose vicinities contain a changed occurrence —
// computed once at the deepest affected level. Like NotifyEdgeDelta,
// call before the mutated snapshot is published.
func (mgr *Manager) NotifyEventDelta(graphName string, changed map[string][]graph.NodeID, targetEpoch uint64) {
	if len(changed) == 0 {
		return
	}
	var affected []*Monitor
	maxH := 0
	for _, m := range mgr.listAndMark(graphName, targetEpoch) {
		for name := range changed {
			if m.watches(name) {
				affected = append(affected, m)
				maxH = max(maxH, m.def.H)
				break
			}
		}
	}
	if len(affected) == 0 {
		return
	}
	var sources []graph.NodeID
	seen := make(map[graph.NodeID]bool)
	for name, nodes := range changed {
		if !slices.ContainsFunc(affected, func(m *Monitor) bool { return m.watches(name) }) {
			continue
		}
		for _, v := range nodes {
			if !seen[v] {
				seen[v] = true
				sources = append(sources, v)
			}
		}
	}
	d := pendingDelta{epoch: targetEpoch, batches: 1}
	if len(sources) > 0 {
		// Event mutations leave the graph untouched, so any affected
		// monitor's current snapshot carries the right structure for
		// the ball.
		g, _, _, engines := affected[0].snap()
		d.dirty = dirtyBall(g, engines, sources, maxH)
	}
	for _, m := range affected {
		m.notify(d)
	}
}

// dirtyBall returns every node whose h-vicinity contains one of the
// sources: the h-ball around the sources, traversed with an engine
// borrowed from engines.
func dirtyBall(g *graph.Graph, engines *graph.EnginePool, sources []graph.NodeID, h int) []graph.NodeID {
	valid := sources[:0:0]
	for _, v := range sources {
		if g.Valid(v) {
			valid = append(valid, v)
		}
	}
	if len(valid) == 0 {
		return nil
	}
	bfs := engines.Acquire(g)
	defer engines.Put(bfs)
	return bfs.SetVicinity(valid, h, nil)
}
