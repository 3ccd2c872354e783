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
	"strings"
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

	// memos bounds the retained memos of all the registry's entries;
	// held is this entry's, and removed marks an entry that left the
	// registry and retains nothing more, both guarded by memos.mu.
	memos   *retainedMemos
	held    map[memoKey]*retained
	removed bool
}

// memoKey names a memo an entry retains: the events its entries count,
// NUL-separated, and the vicinity level. A density memo's events are
// its sorted vocabulary, a count memo's its ordered event pair.
type memoKey struct {
	events string
	h      int
	counts bool
}

// retained is one memo an entry retains, a density memo or a count
// memo, and its place in the LRU.
type retained struct {
	e      *GraphEntry
	key    memoKey
	events []string
	dense  *screen.SharedMemo
	counts *core.CountMemo
	elem   *list.Element
}

func (r *retained) bytes() int64 {
	if r.dense != nil {
		return r.dense.Bytes()
	}
	return r.counts.Bytes()
}

// retainedMemos bounds the memos retained across one registry's
// entries, density memos and correlate count memos alike: their total
// footprint stays under the budget (screen.MemoBudgetBytes), and the
// least recently used goes first. A density memo keeps growing after
// it is made (its population cache, its rank table), so the total is
// re-checked whenever a memo is made and again when a lent memo comes
// back.
type retainedMemos struct {
	mu     sync.Mutex
	budget int64
	lru    list.List // *retained; front = most recently used
}

// lendMemo lends the density memo over the sorted event vocabulary
// names at level h to a sweep bound to epoch, pinned to that epoch
// (screen.SharedMemo.Pin). The sweep calls release when it returns,
// which unpins the memo and re-checks the budget. The memo follows
// the entry's graph from version to version (advanceMemos), so screen
// jobs, watchlists and monitors on one key share it across mutations.
// The entry makes the memo only for the current epoch. It lends nil
// for a stale snapshot without a memo, for a pin the memo refuses, and
// when a memo over the vocabulary exceeds the budget on its own.
func (e *GraphEntry) lendMemo(names []string, h int, epoch uint64) (memo *screen.SharedMemo, release func()) {
	c := e.memos
	key := memoKey{events: strings.Join(names, "\x00"), h: h}
	c.mu.Lock()
	r := e.held[key]
	if r != nil {
		c.lru.MoveToFront(r.elem)
	}
	c.mu.Unlock()
	if r == nil && epoch == e.Epoch() {
		if memo, err := screen.NewSharedMemo(e.Graph().NumNodes(), names); err == nil {
			r = c.hold(&retained{e: e, key: key, events: memo.Names(), dense: memo})
		}
	}
	if r == nil || !r.dense.Pin(epoch) {
		return nil, func() {}
	}
	return r.dense, func() {
		r.dense.Unpin()
		c.trim()
	}
}

// countMemo returns the count memo of the event pair (a, b) at level h
// for a correlate on snap, making an empty one stamped with snap's
// epoch when the entry has none. The memo follows the entry's graph
// from version to version (advanceMemos); one that missed an epoch
// bump is stale for good and is replaced. A correlate pinned to an
// older snapshot gets the retained memo, which it then treats as
// absent, or nil: it never makes one.
func (e *GraphEntry) countMemo(snap Snapshot, a, b string, h int) *core.CountMemo {
	behind := snap.Epoch < e.Epoch()
	c := e.memos
	c.mu.Lock()
	defer c.mu.Unlock()
	key := memoKey{events: a + "\x00" + b, h: h, counts: true}
	if r := e.held[key]; r != nil {
		if r.counts.Epoch() >= snap.Epoch {
			c.lru.MoveToFront(r.elem)
			return r.counts
		}
		c.dropLocked(r.elem)
	}
	if behind {
		return nil
	}
	r := c.holdLocked(&retained{e: e, key: key, events: []string{a, b}, counts: core.NewCountMemo(snap.Graph.NumNodes(), h, snap.Epoch)})
	if r == nil {
		return nil
	}
	return r.counts
}

// heldMemos lists the memos the entry retains.
func (e *GraphEntry) heldMemos() []*retained {
	c := e.memos
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*retained, 0, len(e.held))
	for _, r := range e.held {
		out = append(out, r)
	}
	return out
}

// hold retains r unless its entry already retains a memo under r's key
// (made concurrently), which it returns instead, or left the registry,
// when it returns nil.
func (c *retainedMemos) hold(r *retained) *retained {
	c.mu.Lock()
	defer c.mu.Unlock()
	if held := r.e.held[r.key]; held != nil {
		c.lru.MoveToFront(held.elem)
		return held
	}
	return c.holdLocked(r)
}

// holdLocked retains r, the most recently used memo, and evicts others
// past the budget. It returns nil when r's entry left the registry.
func (c *retainedMemos) holdLocked(r *retained) *retained {
	e := r.e
	if e.removed {
		return nil
	}
	if e.held == nil {
		e.held = make(map[memoKey]*retained)
	}
	r.elem = c.lru.PushFront(r)
	e.held[r.key] = r
	c.evictLocked()
	return r
}

// evictLocked drops least recently used memos until the retained total
// fits the budget. The most recently used memo always stays: it fit
// the budget alone when it was made.
func (c *retainedMemos) evictLocked() {
	var total int64
	for el := c.lru.Front(); el != nil; el = el.Next() {
		total += el.Value.(*retained).bytes()
	}
	for total > c.budget && c.lru.Len() > 1 {
		el := c.lru.Back()
		total -= el.Value.(*retained).bytes()
		c.dropLocked(el)
	}
}

// dropLocked removes el's memo from the LRU and from its entry.
func (c *retainedMemos) dropLocked(el *list.Element) {
	r := c.lru.Remove(el).(*retained)
	delete(r.e.held, r.key)
}

// drop removes r, when its entry still retains it.
func (c *retainedMemos) drop(r *retained) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if r.e.held[r.key] == r {
		c.dropLocked(r.elem)
	}
}

// trim re-checks the retained total after a sweep grew a memo.
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
	for _, r := range e.held {
		c.dropLocked(r.elem)
	}
	e.removed = true
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
