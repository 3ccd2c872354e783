package monitor

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"tesc/internal/graph"
)

// ErrAlreadyRegistered is wrapped by the error Create and Restore
// return when the graph already has a monitor with the definition's ID.
var ErrAlreadyRegistered = errors.New("already registered")

// Manager is the registry and scheduler of standing queries across
// all graphs of a serving tier. The mutation path notifies it of each
// batch; it fans each one out to the graph's monitors it can affect,
// which coalesce and re-screen per their policies.
type Manager struct {
	mu     sync.Mutex
	graphs map[string]*graphMonitors
	nextID int64

	reruns      atomic.Int64
	nodesReused atomic.Int64
}

// graphMonitors is one graph's standing queries plus the notification
// watermark closing the registration race: notifiedEpoch is the
// highest target epoch any notification for this graph has carried. A
// notification lists the registered monitors before its mutation
// publishes; a monitor registered AFTER that listing but whose
// baseline binds the still-published older snapshot would never
// re-screen at the mutation's epoch. Queuing every new monitor an
// entry at the watermark makes it re-screen once that epoch publishes
// (the entry drains as a no-op if the baseline already binds it).
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
func (mgr *Manager) Create(graphName string, def Definition, snap SnapshotFunc, memo MemoFunc) (*Monitor, error) {
	m, err := mgr.add(graphName, State{Def: def}, snap, memo)
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
// baseline: the history ring continues where the snapshot left off.
func (mgr *Manager) Restore(graphName string, st State, snap SnapshotFunc, memo MemoFunc) (*Monitor, error) {
	if st.Def.ID == "" {
		return nil, fmt.Errorf("monitor: restored state needs an ID")
	}
	return mgr.add(graphName, st, snap, memo)
}

func (mgr *Manager) add(graphName string, st State, snap SnapshotFunc, memo MemoFunc) (*Monitor, error) {
	if graphName == "" {
		return nil, fmt.Errorf("monitor: empty graph name")
	}
	if snap == nil || memo == nil {
		return nil, fmt.Errorf("monitor: nil snapshot or memo source")
	}
	def := st.Def
	if err := def.Normalize(); err != nil {
		return nil, err
	}
	m := &Monitor{def: def, graph: graphName, snap: snap, memo: memo, mgr: mgr}
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
		// monitor list and not yet published.
		m.pending = append(m.pending, pendingDelta{epoch: gm.notifiedEpoch})
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

// Notify tells the graph's monitors of a mutation that publishes
// epoch. changed maps each mutated event to its changed occurrence
// nodes; it is nil for an edge batch, which can affect every monitor.
// Each monitor the mutation can affect counts a batch and, in Auto
// mode, arms its debounce timer. Callers on the serialized mutation
// path notify before the epoch publishes, so no refresh can bind it
// without its batch queued.
func (mgr *Manager) Notify(graphName string, changed map[string][]graph.NodeID, epoch uint64) {
	for _, m := range mgr.listAndMark(graphName, epoch) {
		affected := changed == nil
		for name := range changed {
			affected = affected || m.watches(name)
		}
		if affected {
			m.notify(epoch)
		}
	}
}
