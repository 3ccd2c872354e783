// Package server implements tescd, a long-running HTTP/JSON service for
// TESC queries over evolving graphs. It amortizes the two expensive
// offline steps the paper separates from query time — loading the graph
// and building the vicinity-size index (§4.2) — across many cheap
// online correlation queries: graphs are loaded once into a named
// registry, vicinity indexes are built on demand with single-flight
// construction under a capacity LRU, and screening sweeps run as
// asynchronous jobs with progress polling.
//
// Graphs and event sets are mutable through the API, with epoch
// snapshots as the consistency model: every mutation (edge batch, event
// add/remove) publishes a fresh immutable snapshot and bumps the
// entry's epoch; a query binds to exactly one snapshot for its whole
// execution, so concurrent mutators never produce torn reads. What the
// server derives from a graph version — its BFS engine pool and its
// vicinity indexes — hangs off the snapshot itself, so a query finds
// exactly its own version's state however far the entry has moved on.
// Vicinity indexes are not invalidated on edge mutations: the mutation
// repairs a clone of each into the successor version before that
// version publishes, via the paper's locality argument (an edge flip
// only perturbs |V^h_v| within h hops of its endpoints).
package server

import (
	"container/list"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"tesc"
	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/screen"
)

// ErrAlreadyRegistered reports a graph-name collision; handlers match
// it with errors.Is to map registration conflicts to 409.
var ErrAlreadyRegistered = errors.New("already registered")

// Snapshot is one immutable, internally consistent version of a
// registered graph: the CSR graph, the frozen event store, and the
// version stamps. Queries take a snapshot once and use only it; the
// entry may move on concurrently.
type Snapshot struct {
	// Graph is the immutable graph snapshot.
	Graph *tesc.Graph
	// Store is the frozen event-occurrence snapshot.
	Store *events.Store
	// Epoch increases by one on every mutation of the entry, edge or
	// event; responses carry it so clients can tell which version
	// answered.
	Epoch uint64
	// GraphVersion increases only on edge mutations: an index is valid
	// for exactly one graph version, and an edge mutation migrates
	// cached indexes to the next version by incremental repair instead
	// of eviction.
	GraphVersion uint64

	// state is what the server derives from the graph version. Event
	// mutations keep it; edge mutations make the successor's.
	state *versionState
}

// versionState is the state derived from one graph version: the BFS
// engine pool bound to its graph and its vicinity indexes by MaxLevel.
// Register and RegisterRestored make the first; MutateEdges makes the
// successor's before its refresh hook migrates the indexes into it, and
// an aborted mutation drops it. A reader bound to a snapshot uses only
// that snapshot's versionState, so a superseded reader still finds its
// own version's pool and indexes, and a dead version is freed once its
// last snapshot is dropped.
type versionState struct {
	pool *tesc.EnginePool
	// indexes holds one single-flight slot per MaxLevel, guarded by the
	// IndexCache's mu.
	indexes map[int]*indexSlot
}

func newVersionState(g *tesc.Graph) *versionState {
	return &versionState{pool: g.NewEnginePool(), indexes: make(map[int]*indexSlot)}
}

// GraphEntry is one registered graph plus its accumulated event
// occurrences. All methods are safe for concurrent use.
type GraphEntry struct {
	name    string
	created time.Time

	// mutMu serializes mutations end to end (snapshot computation,
	// index refresh, publication), so epochs increase monotonically and
	// cache refreshes never interleave. Queries never take it.
	mutMu sync.Mutex

	mu      sync.RWMutex
	builder *events.Builder
	cur     Snapshot

	// memos bounds the retained memos of all the registry's entries:
	// memo is this entry's screening memo, counts its correlate count
	// memos by event pair and level, both guarded by memos.mu.
	memos  *retainedMemos
	memo   retainedMemo
	counts map[countKey]*retainedCounts
}

// retainedMemo is the density memo an entry keeps for the screen jobs
// of one (epoch, h). elem is the entry's place in the LRU, nil when
// nothing is retained.
type retainedMemo struct {
	memo    *screen.SharedMemo
	epoch   uint64
	h       int
	elem    *list.Element
	removed bool // the entry left the registry; retain nothing more
}

// countKey names a correlate count memo: the ordered event pair and
// the vicinity level.
type countKey struct {
	a, b string
	h    int
}

// retainedCounts is a count memo an entry retains, and its place in
// the LRU.
type retainedCounts struct {
	e    *GraphEntry
	key  countKey
	memo *core.CountMemo
	elem *list.Element
}

// retainedMemos bounds the memos retained across one registry's
// entries, screening memos and correlate count memos alike: their
// total footprint stays under the budget (screen.MemoBudgetBytes), and
// the least recently used goes first. A screening memo keeps growing
// after a job installs it (its population cache, its rank table), so
// the total is re-checked whenever a memo is installed and again when
// a screen job finishes.
type retainedMemos struct {
	mu     sync.Mutex
	budget int64
	lru    list.List // *GraphEntry (its screening memo) or *retainedCounts; front = most recently used
}

// screenMemo returns the density memo for a screen job on snap at
// vicinity level h. A memo holds densities of one graph, store and h,
// and Epoch bumps on every edge or event mutation, so the entry retains
// one memo keyed by (Epoch, h), shared by every job on that key; a job
// on the current epoch with another key replaces it. A job pinned to
// an older snapshot shares the retained memo only if it is still keyed
// by that snapshot; otherwise it gets nil and its sweep builds a
// per-run memo, so it never serves from, makes or replaces a newer
// one. Nil also comes back when a memo over the
// snapshot's vocabulary exceeds the budget on its own.
func (e *GraphEntry) screenMemo(snap Snapshot, h int) *screen.SharedMemo {
	c := e.memos
	c.mu.Lock()
	r := &e.memo
	if r.elem != nil && r.epoch == snap.Epoch && r.h == h {
		c.lru.MoveToFront(r.elem)
		defer c.mu.Unlock()
		return r.memo
	}
	c.mu.Unlock()
	if snap.Epoch < e.Epoch() {
		return nil
	}
	memo, err := screen.NewSharedMemo(snap.Graph.NumNodes(), snap.Store.Names())
	if err != nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	switch {
	case r.elem != nil && r.epoch == snap.Epoch && r.h == h:
		// A concurrent job installed this key first; share its memo.
		c.lru.MoveToFront(r.elem)
		return r.memo
	case r.removed || (r.elem != nil && r.epoch > snap.Epoch):
		return nil
	}
	if r.elem != nil {
		c.lru.Remove(r.elem)
	}
	*r = retainedMemo{memo: memo, epoch: snap.Epoch, h: h, elem: c.lru.PushFront(e)}
	c.evictLocked()
	return memo
}

// countMemo returns the count memo of the event pair (a, b) at level h
// for a correlate on snap, making an empty one stamped with snap's
// epoch when the entry has none. The memo follows the entry's graph
// from version to version (advanceCounts); one that missed an epoch
// bump is stale for good and is replaced. A correlate pinned to an
// older snapshot gets the retained memo, which it then treats as
// absent, or nil: it never makes one.
func (e *GraphEntry) countMemo(snap Snapshot, a, b string, h int) *core.CountMemo {
	behind := snap.Epoch < e.Epoch()
	c := e.memos
	c.mu.Lock()
	defer c.mu.Unlock()
	key := countKey{a, b, h}
	if m := e.counts[key]; m != nil {
		if m.memo.Epoch() >= snap.Epoch {
			c.lru.MoveToFront(m.elem)
			return m.memo
		}
		c.dropLocked(m.elem)
	}
	if behind || e.memo.removed {
		return nil
	}
	if e.counts == nil {
		e.counts = make(map[countKey]*retainedCounts)
	}
	m := &retainedCounts{e: e, key: key, memo: core.NewCountMemo(snap.Graph.NumNodes(), h, snap.Epoch)}
	m.elem = c.lru.PushFront(m)
	e.counts[key] = m
	c.evictLocked()
	return m.memo
}

// advanceCounts carries the entry's count memos from epoch from to
// epoch to, clearing the records of the nodes in dirty, when keep
// accepts the memo's key; every other memo, and any not at from, is
// dropped. The mutation paths call it before they publish epoch to.
func (e *GraphEntry) advanceCounts(from, to uint64, dirty []graph.NodeID, keep func(countKey) bool) {
	c := e.memos
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, m := range e.counts {
		if !keep(key) || !m.memo.Advance(from, to, dirty) {
			c.dropLocked(m.elem)
		}
	}
}

// evictLocked drops least recently used memos until the retained total
// fits the budget. The most recently used memo always stays: it fit
// the budget alone when it was made.
func (c *retainedMemos) evictLocked() {
	var total int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		total += memoBytes(el)
	}
	for total > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		total -= memoBytes(el)
		c.dropLocked(el)
	}
}

func memoBytes(el *list.Element) int64 {
	if m, ok := el.Value.(*retainedCounts); ok {
		return m.memo.Bytes()
	}
	return el.Value.(*GraphEntry).memo.memo.Bytes()
}

// dropLocked removes el's memo from the LRU and from its entry.
func (c *retainedMemos) dropLocked(el *list.Element) {
	c.lru.Remove(el)
	if m, ok := el.Value.(*retainedCounts); ok {
		delete(m.e.counts, m.key)
		return
	}
	el.Value.(*GraphEntry).memo = retainedMemo{}
}

// trim re-checks the retained total after a screen job grew its memo.
func (c *retainedMemos) trim() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evictLocked()
}

// release drops the entry's memos for good: the entry left the
// registry.
func (c *retainedMemos) release(e *GraphEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.memo.elem != nil {
		c.lru.Remove(e.memo.elem)
	}
	for _, m := range e.counts {
		c.dropLocked(m.elem)
	}
	e.memo = retainedMemo{removed: true}
}

// Name returns the registry name of the graph.
func (e *GraphEntry) Name() string { return e.name }

// Created returns the registration time.
func (e *GraphEntry) Created() time.Time { return e.created }

// Snapshot returns the current immutable snapshot.
func (e *GraphEntry) Snapshot() Snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cur
}

// Graph returns the current graph snapshot.
func (e *GraphEntry) Graph() *tesc.Graph { return e.Snapshot().Graph }

// Epoch returns the current snapshot's epoch.
func (e *GraphEntry) Epoch() uint64 { return e.Snapshot().Epoch }

// EnginePool returns the shared BFS engine pool of the snapshot's graph
// version. Every query, screen job and monitor re-screen bound to the
// snapshot borrows from it, and so does the index repair of the edge
// mutation that makes the version, so the engines that repair warmed
// serve the version's queries once it publishes.
func (e *GraphEntry) EnginePool(snap Snapshot) *tesc.EnginePool {
	return snap.state.pool
}

// MutateEdges applies an edge-change batch and publishes the successor
// snapshot. No-op changes (inserting a present edge, deleting an absent
// one) are skipped; applied reports the changes that took effect. When
// at least one change took effect, refresh — if non-nil — runs between
// computing the successor and publishing it, with mutations still
// serialized, so the index cache can migrate the indexes into the
// successor's versionState before any query can observe the new
// version; a refresh error aborts the whole mutation before
// publication (the WAL's log-before-publish hook: an unloggable
// mutation must never be acknowledged), and the successor's state dies
// with it. An entirely
// ineffective batch publishes nothing and returns the current snapshot
// unchanged.
func (e *GraphEntry) MutateEdges(changes []tesc.EdgeChange, refresh func(old, next Snapshot, applied []tesc.EdgeChange) error) (Snapshot, []tesc.EdgeChange, error) {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	old := e.Snapshot()
	newG, applied, err := old.Graph.ApplyEdgeChanges(changes)
	if err != nil {
		return Snapshot{}, nil, err
	}
	if len(applied) == 0 {
		return old, nil, nil
	}
	next := Snapshot{
		Graph:        newG,
		Store:        old.Store,
		Epoch:        old.Epoch + 1,
		GraphVersion: old.GraphVersion + 1,
		state:        newVersionState(newG),
	}
	if refresh != nil {
		if err := refresh(old, next, applied); err != nil {
			return Snapshot{}, nil, err
		}
	}
	e.mu.Lock()
	e.cur = next
	e.mu.Unlock()
	return next, applied, nil
}

// MutateEventsNotify applies event additions and removals as one
// mutation (one epoch bump, one published snapshot). It takes a
// pre-publication hook: when the batch will take effect, notify runs — with mutations still
// serialized, before any reader can observe the successor snapshot —
// receiving the per-event occurrence nodes the batch touches and the
// epoch the mutation publishes. The monitor scheduler queues its
// density-cache invalidations there, so a standing query can never
// bind the new epoch without its invalidation already being queued
// (the same ordering the edge path gets from MutateEdges' refresh
// callback), and the WAL appends its record there — a notify error
// aborts the mutation before anything is applied or published.
func (e *GraphEntry) MutateEventsNotify(add, remove map[string][]int, notify func(changed map[string][]graph.NodeID, nextEpoch uint64) error) error {
	return e.mutateEvents(add, remove, notify)
}

func (e *GraphEntry) mutateEvents(add, remove map[string][]int, notify func(changed map[string][]graph.NodeID, nextEpoch uint64) error) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	old := e.Snapshot()
	n := old.Graph.NumNodes()
	for name, nodes := range add {
		if name == "" {
			return fmt.Errorf("empty event name")
		}
		for _, v := range nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("event %q: node %d outside [0,%d)", name, v, n)
			}
		}
	}
	// Validate removals fully before touching the builder, so a bad
	// batch is rejected whole. An occurrence added in the same batch may
	// also be removed (apply order is add, then remove).
	for name, nodes := range remove {
		addedNodes, addedAny := add[name]
		if !old.Store.Has(name) && !addedAny {
			return fmt.Errorf("unknown event %q", name)
		}
		for _, v := range nodes {
			if v < 0 || v >= n {
				return fmt.Errorf("event %q: node %d outside [0,%d)", name, v, n)
			}
			if old.Store.Intensity(name, graph.NodeID(v)) > 0 {
				continue
			}
			inBatch := false
			for _, a := range addedNodes {
				if a == v {
					inBatch = true
					break
				}
			}
			if !inBatch {
				return fmt.Errorf("event %q has no occurrence on node %d", name, v)
			}
		}
	}
	if notify != nil {
		// The batch is fully validated and will apply; gather the
		// occurrence nodes it touches per event (a whole-event removal
		// touches every former occurrence) and notify before taking
		// e.mu — publication is still ahead of us.
		changed := make(map[string][]graph.NodeID, len(add)+len(remove))
		for name, nodes := range add {
			for _, v := range nodes {
				changed[name] = append(changed[name], graph.NodeID(v))
			}
		}
		for name, nodes := range remove {
			if len(nodes) == 0 {
				changed[name] = append(changed[name], old.Store.Occurrences(name)...)
				continue
			}
			for _, v := range nodes {
				changed[name] = append(changed[name], graph.NodeID(v))
			}
		}
		if err := notify(changed, old.Epoch+1); err != nil {
			return err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, nodes := range add {
		for _, v := range nodes {
			e.builder.Add(name, graph.NodeID(v))
		}
	}
	for name, nodes := range remove {
		if len(nodes) == 0 {
			e.builder.RemoveEvent(name)
			continue
		}
		for _, v := range nodes {
			// Validated above; duplicates within the batch are idempotent.
			e.builder.Remove(name, graph.NodeID(v))
		}
	}
	e.cur.Store = e.builder.Build()
	e.cur.Epoch++
	return nil
}

// AddStore replays a parsed event store into the entry, preserving
// per-occurrence intensities (§6's event-intensity extension, e.g. the
// optional third column of the graphio events format). The store's
// node universe must match the graph.
func (e *GraphEntry) AddStore(store *events.Store) error {
	e.mutMu.Lock()
	defer e.mutMu.Unlock()
	if store.Universe() != e.Snapshot().Graph.NumNodes() {
		return fmt.Errorf("event universe %d does not match graph nodes %d", store.Universe(), e.Snapshot().Graph.NumNodes())
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, name := range store.Names() {
		for _, v := range store.Occurrences(name) {
			e.builder.AddWeighted(name, v, store.Intensity(name, v))
		}
	}
	e.cur.Store = e.builder.Build()
	e.cur.Epoch++
	return nil
}

// storeOccurrences returns the occurrence node IDs of the named event
// in the given store, or an error naming the event when it is unknown.
func storeOccurrences(store *events.Store, name string) ([]int, error) {
	if !store.Has(name) {
		return nil, fmt.Errorf("unknown event %q", name)
	}
	occ := store.Occurrences(name)
	out := make([]int, len(occ))
	for i, v := range occ {
		out[i] = int(v)
	}
	return out, nil
}

// Registry is a named collection of loaded graphs. It is the unit of
// amortization: a graph is parsed and indexed once, then serves any
// number of queries.
type Registry struct {
	mu     sync.RWMutex
	graphs map[string]*GraphEntry
	memos  *retainedMemos
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{graphs: make(map[string]*GraphEntry), memos: &retainedMemos{budget: screen.MemoBudgetBytes}}
}

// Register adds a graph under a unique name.
func (r *Registry) Register(name string, g *tesc.Graph) (*GraphEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("empty graph name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return nil, fmt.Errorf("graph %q %w", name, ErrAlreadyRegistered)
	}
	e := &GraphEntry{
		name:    name,
		created: time.Now(),
		builder: events.NewBuilder(g.NumNodes()),
		memos:   r.memos,
	}
	e.cur = Snapshot{Graph: g, Store: e.builder.Build(), Epoch: 1, GraphVersion: 1, state: newVersionState(g)}
	r.graphs[name] = e
	return e, nil
}

// RegisterRestored installs a warm-start entry deserialized from a
// snapshot: the event store and the epoch stamps continue exactly
// where the persisted entry left off, so clients comparing response
// epochs across a daemon restart never see time run backwards. A nil
// store restores a graph persisted before any events were registered.
func (r *Registry) RegisterRestored(name string, g *tesc.Graph, store *events.Store, epoch, graphVersion uint64) (*GraphEntry, error) {
	if name == "" {
		return nil, fmt.Errorf("empty graph name")
	}
	if epoch < 1 || graphVersion < 1 {
		return nil, fmt.Errorf("graph %q: epoch %d / graph version %d must be >= 1", name, epoch, graphVersion)
	}
	var builder *events.Builder
	if store == nil {
		builder = events.NewBuilder(g.NumNodes())
		store = builder.Build()
	} else {
		if store.Universe() != g.NumNodes() {
			return nil, fmt.Errorf("graph %q: event universe %d does not match graph nodes %d", name, store.Universe(), g.NumNodes())
		}
		builder = events.BuilderFromStore(store)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.graphs[name]; ok {
		return nil, fmt.Errorf("graph %q %w", name, ErrAlreadyRegistered)
	}
	e := &GraphEntry{
		name:    name,
		created: time.Now(),
		builder: builder,
		memos:   r.memos,
	}
	e.cur = Snapshot{Graph: g, Store: store, Epoch: epoch, GraphVersion: graphVersion, state: newVersionState(g)}
	r.graphs[name] = e
	return e, nil
}

// Get returns the entry for name, or false.
func (r *Registry) Get(name string) (*GraphEntry, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	e, ok := r.graphs[name]
	return e, ok
}

// Remove deletes the named graph and releases its screening memo,
// returning the removed entry so the caller can release the other
// resources keyed on it (cached indexes).
func (r *Registry) Remove(name string) (*GraphEntry, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.graphs[name]
	if ok {
		delete(r.graphs, name)
		r.memos.release(e)
	}
	return e, ok
}

// Names returns the registered graph names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	names := make([]string, 0, len(r.graphs))
	for name := range r.graphs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
