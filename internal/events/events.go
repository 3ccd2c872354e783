// Package events stores event occurrences on graph nodes: the attributed
// graph model of the paper's §2, where each node v carries a set of
// events Qv ⊆ Q and each event a has an occurrence node set Va.
//
// The store is optimized for the two access patterns TESC needs:
// event → occurrence NodeSet (to form Va, Vb, Va∪b) and node → event list
// (for the baselines that treat nodes as transactions).
package events

import (
	"fmt"
	"sort"

	"tesc/internal/graph"
)

// Store is an immutable event-occurrence index over a fixed node
// universe. Build one with a Builder. A live system mutates the
// builder and re-freezes: every Build stamps the snapshot with the
// builder's monotonically increasing epoch, so concurrent readers can
// tell (and report) exactly which version of the event data a
// computation used while in-flight work keeps its consistent older
// snapshot.
type Store struct {
	n      int    // node universe size
	epoch  uint64 // builder generation this snapshot was frozen at
	names  []string
	byName map[string]int
	sets   []*graph.NodeSet // event index → occurrence set
	weight []map[graph.NodeID]float64
}

// Builder accumulates event occurrences. It is the mutable side of the
// store: add or remove occurrences freely, then freeze a consistent
// snapshot with Build. The builder is not safe for concurrent use; the
// snapshots it produces are immutable and freely shareable.
type Builder struct {
	n     int
	epoch uint64
	occ   map[string]map[graph.NodeID]float64
}

// NewBuilder returns a builder over a universe of n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n, occ: make(map[string]map[graph.NodeID]float64)}
}

// Add records that event name occurred on node v with unit intensity.
// Repeated additions accumulate intensity (e.g. an author using the same
// keyword in several papers — the §6 intensity extension), while the
// occurrence itself stays idempotent.
func (b *Builder) Add(name string, v graph.NodeID) { b.AddWeighted(name, v, 1) }

// AddWeighted records an occurrence with an explicit intensity (> 0).
func (b *Builder) AddWeighted(name string, v graph.NodeID, intensity float64) {
	if v < 0 || int(v) >= b.n {
		panic(fmt.Sprintf("events: node %d outside universe [0,%d)", v, b.n))
	}
	if intensity <= 0 {
		panic(fmt.Sprintf("events: intensity %g must be positive", intensity))
	}
	m := b.occ[name]
	if m == nil {
		m = make(map[graph.NodeID]float64)
		b.occ[name] = m
	}
	m[v] += intensity
}

// AddAll records an event on every node in vs.
func (b *Builder) AddAll(name string, vs []graph.NodeID) {
	for _, v := range vs {
		b.Add(name, v)
	}
}

// Remove deletes the occurrence of the event on node v (whatever its
// accumulated intensity), reporting whether it existed. Removing the
// last occurrence removes the event itself.
func (b *Builder) Remove(name string, v graph.NodeID) bool {
	m := b.occ[name]
	if m == nil {
		return false
	}
	if _, ok := m[v]; !ok {
		return false
	}
	delete(m, v)
	if len(m) == 0 {
		delete(b.occ, name)
	}
	return true
}

// RemoveEvent deletes every occurrence of the event, reporting whether
// it existed.
func (b *Builder) RemoveEvent(name string) bool {
	if _, ok := b.occ[name]; !ok {
		return false
	}
	delete(b.occ, name)
	return true
}

// Build freezes the builder into a Store.
func (b *Builder) Build() *Store {
	b.epoch++
	s := &Store{
		n:      b.n,
		epoch:  b.epoch,
		byName: make(map[string]int, len(b.occ)),
	}
	for name := range b.occ {
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	s.weight = make([]map[graph.NodeID]float64, len(s.names))
	s.sets = make([]*graph.NodeSet, len(s.names))
	for i, name := range s.names {
		s.byName[name] = i
		nodes := make([]graph.NodeID, 0, len(b.occ[name]))
		w := make(map[graph.NodeID]float64, len(b.occ[name]))
		for v, intensity := range b.occ[name] {
			nodes = append(nodes, v)
			w[v] = intensity
		}
		s.sets[i] = graph.NewNodeSet(b.n, nodes)
		s.weight[i] = w
	}
	return s
}

// BuildAt freezes the builder into a Store stamped with the given
// epoch (>= 1) and resynchronizes the builder's counter to it, so
// subsequent Builds continue at epoch+1. Snapshot restore uses it to
// reproduce a persisted store exactly, epoch included: without it a
// warm-started daemon would reset epochs to 1 and clients comparing
// response epochs across a restart would see time run backwards.
func (b *Builder) BuildAt(epoch uint64) (*Store, error) {
	if epoch < 1 {
		return nil, fmt.Errorf("events: epoch %d must be >= 1 (Build always stamps at least 1)", epoch)
	}
	b.epoch = epoch - 1
	return b.Build(), nil
}

// BuilderFromStore returns a builder primed with every occurrence and
// intensity of the store, its epoch counter synced so the next Build
// produces epoch s.Epoch()+1 — the mutable side of a warm-started
// entry, picking up exactly where the persisted store left off.
func BuilderFromStore(s *Store) *Builder {
	b := NewBuilder(s.n)
	b.epoch = s.epoch
	for i, name := range s.names {
		for _, v := range s.sets[i].Members() {
			b.AddWeighted(name, v, s.weight[i][v])
		}
	}
	return b
}

// Intensity returns the intensity of the event on node v (0 when the
// event does not occur there).
func (s *Store) Intensity(name string, v graph.NodeID) float64 {
	i, ok := s.byName[name]
	if !ok {
		return 0
	}
	return s.weight[i][v]
}

// IntensityVector returns the full-length intensity vector of the event
// (length = universe), suitable for the intensity-weighted TESC variant.
// Returns nil for unknown events.
func (s *Store) IntensityVector(name string) []float64 {
	i, ok := s.byName[name]
	if !ok {
		return nil
	}
	out := make([]float64, s.n)
	for v, w := range s.weight[i] {
		out[v] = w
	}
	return out
}

// Weighted reports whether any occurrence of the event has intensity ≠ 1.
func (s *Store) Weighted(name string) bool {
	i, ok := s.byName[name]
	if !ok {
		return false
	}
	for _, w := range s.weight[i] {
		if w != 1 {
			return true
		}
	}
	return false
}

// Universe returns the node universe size.
func (s *Store) Universe() int { return s.n }

// Epoch returns the builder generation this snapshot was frozen at:
// snapshots from the same builder carry strictly increasing epochs, so
// readers can order successive event-store versions. It versions the
// event data only — it is independent of (and generally disagrees
// with) server.Snapshot.Epoch, which also advances on graph edge
// mutations; serving-tier consumers should report that combined epoch,
// not this one.
func (s *Store) Epoch() uint64 { return s.epoch }

// NumEvents returns the number of distinct events.
func (s *Store) NumEvents() int { return len(s.names) }

// Names returns all event names, sorted. The slice aliases internal
// storage.
func (s *Store) Names() []string { return s.names }

// Has reports whether the store knows the event.
func (s *Store) Has(name string) bool {
	_, ok := s.byName[name]
	return ok
}

// Occurrences returns the sorted occurrence nodes of the event, or nil if
// unknown. The slice aliases internal storage.
func (s *Store) Occurrences(name string) []graph.NodeID {
	i, ok := s.byName[name]
	if !ok {
		return nil
	}
	return s.sets[i].Members()
}

// Count returns |Va| for the event, 0 if unknown.
func (s *Store) Count(name string) int { return len(s.Occurrences(name)) }

// Set returns the occurrence NodeSet of the event (Va), or an empty set
// if the event is unknown. Build makes every event's set, so Set only
// looks it up and is safe to call from concurrent screening workers.
func (s *Store) Set(name string) *graph.NodeSet {
	i, ok := s.byName[name]
	if !ok {
		return graph.NewNodeSet(s.n, nil)
	}
	return s.sets[i]
}
