package server

import (
	"container/list"
	"sort"
	"sync"
	"sync/atomic"

	"tesc"
	"tesc/internal/graph"
	"tesc/internal/vicinity"
)

// IndexKey identifies one place in the index cache's LRU: the paper's
// offline |V^h_v| structure is per-graph and per-maximum-level (§4.2).
// The graph is identified by its registry entry, not its name, so
// deleting a graph and re-registering a different one under the same
// name can never serve the old graph's index.
type IndexKey struct {
	Entry    *GraphEntry
	MaxLevel int
}

// IndexCache builds the vicinity indexes of graph versions and bounds
// how many the published versions keep. The indexes live in each
// snapshot's versionState, one single-flight slot per MaxLevel:
// concurrent Get calls on one version and level block on one build
// instead of each running the full O(|V|) BFS scan, and a query for
// level h is also served by a completed index of the same version with
// MaxLevel ≥ h. A failed build is not kept, so the next Get retries.
//
// The cache itself keeps only what spans versions: the build and
// refresh counters, and a capacity LRU of (entry, level) keys, one per
// level a published version holds. Evicting a key clears that level in
// the entry's published version. A superseded version is neither
// counted nor evicted: it keeps its indexes for the readers still bound
// to it and is freed with its last snapshot. Edge mutations do not
// evict — Refresh migrates every completed index into the successor
// version by cloning it and repairing only the entries the flipped
// edges can have perturbed (VicinityIndex.ApplyDelta), which is the
// serving-tier payoff of the paper's "the index can be efficiently
// updated as the graph changes" (§4.2).
type IndexCache struct {
	capacity   int
	builds     atomic.Int64
	refreshes  atomic.Int64
	recomputed atomic.Int64

	// build constructs the index; overridable by tests to count or
	// stall construction.
	build func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error)

	// mu guards the LRU and the index slots of every versionState of
	// the entries this cache serves.
	mu   sync.Mutex
	keys map[IndexKey]*list.Element
	lru  *list.List // front = most recently used; values are IndexKey
}

// indexSlot is one single-flight vicinity index of a graph version.
type indexSlot struct {
	ready chan struct{} // closed once idx/err are set
	idx   *tesc.VicinityIndex
	err   error
}

// builtSlot wraps a completed index.
func builtSlot(idx *tesc.VicinityIndex) *indexSlot {
	s := &indexSlot{ready: make(chan struct{}), idx: idx}
	close(s.ready)
	return s
}

// built reports whether the slot holds a completed, error-free index.
func (s *indexSlot) built() bool {
	select {
	case <-s.ready:
		return s.err == nil
	default:
		return false
	}
}

// NewIndexCache returns a cache whose published versions keep at most
// capacity indexes (capacity < 1 means 1).
func NewIndexCache(capacity int) *IndexCache {
	if capacity < 1 {
		capacity = 1
	}
	return &IndexCache{
		capacity: capacity,
		build: func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error) {
			return g.BuildVicinityIndex(maxLevel, workers)
		},
		keys: make(map[IndexKey]*list.Element),
		lru:  list.New(),
	}
}

// Get returns a vicinity index covering maxLevel for the snapshot's
// graph, building one with the given worker count on a miss. The index
// comes from the snapshot's own graph version, so it is always bound to
// exactly snap.Graph, however far the entry has moved on. Exactly one
// build runs per (version, level) regardless of how many goroutines ask
// concurrently; the others wait for that build to finish. A completed
// index of the same version with a higher MaxLevel is reused instead of
// building a redundant lower-level one.
func (c *IndexCache) Get(e *GraphEntry, snap Snapshot, maxLevel, workers int) (*tesc.VicinityIndex, error) {
	v := snap.state
	c.mu.Lock()
	s, level := v.indexes[maxLevel], maxLevel
	if s == nil {
		for l, deeper := range v.indexes {
			if l > maxLevel && deeper.built() {
				s, level = deeper, l
				break
			}
		}
	}
	owner := s == nil
	if owner {
		s = &indexSlot{ready: make(chan struct{})}
		v.indexes[maxLevel] = s
	}
	c.touchLocked(e, v, level)
	c.mu.Unlock()
	if !owner {
		<-s.ready
		return s.idx, s.err
	}

	c.builds.Add(1)
	s.idx, s.err = c.build(snap.Graph, maxLevel, workers)
	close(s.ready)
	if s.err != nil {
		c.mu.Lock()
		// Drop the failed slot unless it was already evicted or
		// replaced while building.
		if v.indexes[maxLevel] == s {
			delete(v.indexes, maxLevel)
		}
		c.removeLocked(IndexKey{Entry: e, MaxLevel: maxLevel})
		c.mu.Unlock()
	}
	return s.idx, s.err
}

// touchLocked marks the entry's level as used in the LRU. A missing key
// is added only when v is the entry's published version. This is the
// cache's one version check: a reader that bound its snapshot just
// before an edge mutation published the successor builds into its own
// version's slot, which that version's other readers share, but the
// build must not take a place in the LRU, which counts only what the
// published versions hold.
func (c *IndexCache) touchLocked(e *GraphEntry, v *versionState, level int) {
	key := IndexKey{Entry: e, MaxLevel: level}
	if el, ok := c.keys[key]; ok {
		c.lru.MoveToFront(el)
		return
	}
	if e.Snapshot().state != v {
		return
	}
	c.keys[key] = c.lru.PushFront(key)
	c.trimLocked()
}

// Put installs a prebuilt index — one deserialized from a snapshot —
// into the snapshot's graph version. It does not count as a build: the
// whole point of warm-starting is that Builds stays at zero while the
// first queries hit the cache.
func (c *IndexCache) Put(e *GraphEntry, snap Snapshot, idx *tesc.VicinityIndex) {
	c.mu.Lock()
	defer c.mu.Unlock()
	snap.state.indexes[idx.MaxLevel()] = builtSlot(idx)
	c.touchLocked(e, snap.state, idx.MaxLevel())
}

// indexes returns the completed, error-free indexes of the snapshot's
// graph version, in ascending MaxLevel order — the set a checkpoint
// persists alongside the graph.
func (c *IndexCache) indexes(snap Snapshot) []*tesc.VicinityIndex {
	c.mu.Lock()
	var out []*tesc.VicinityIndex
	for _, s := range snap.state.indexes {
		if s.built() {
			out = append(out, s.idx)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].MaxLevel() < out[j].MaxLevel() })
	return out
}

// IndexesFor returns the completed indexes of the entry's published
// snapshot, in ascending MaxLevel order, when that snapshot is at graph
// version gv, and nil otherwise: the entry reaches no other version.
func (c *IndexCache) IndexesFor(e *GraphEntry, gv uint64) []*tesc.VicinityIndex {
	snap := e.Snapshot()
	if snap.GraphVersion != gv {
		return nil
	}
	return c.indexes(snap)
}

// Refresh migrates every completed index of the old snapshot's graph
// version into next's: each index is cloned, the clone repaired
// incrementally with the applied edge changes (copy-on-write — readers
// of the old index are undisturbed), and the repaired clone installed
// in next's version. The repairs borrow their BFS engines from both
// versions' pools. Called by the mutation path before next publishes,
// with the entry's mutations serialized; if the mutation then aborts,
// next's version and every clone in it die with it. In-flight builds
// are left behind on the old version; a later Get at the new version
// builds its own. It returns the number of migrated indexes and the
// total index entries recomputed across them, plus the flipped-vicinity
// node set of the deepest repaired index (and its level): the dirty
// ball the repair already had to compute, surfaced so the monitor
// scheduler can invalidate standing-query density caches without
// re-walking it. dirty is nil when nothing was repaired.
func (c *IndexCache) Refresh(old, next Snapshot, applied []graph.EdgeChange, workers int) (migrated, nodesRecomputed int, dirty []graph.NodeID, dirtyLevel int) {
	c.mu.Lock()
	built := make(map[int]*indexSlot)
	for level, s := range old.state.indexes {
		if s.built() {
			built[level] = s
		}
	}
	c.mu.Unlock()

	opts := vicinity.Options{Workers: workers}
	if len(built) > 0 {
		opts.OldEngines, opts.Engines = old.state.pool.Internal(), next.state.pool.Internal()
	}
	for level, s := range built {
		clone := s.idx.Clone()
		d, err := clone.Internal().ApplyDeltaDirty(next.Graph.Internal(), applied, opts)
		if err != nil {
			continue
		}
		if level > dirtyLevel {
			dirty, dirtyLevel = d, level
		}
		c.mu.Lock()
		// A level the LRU evicted during its repair does not migrate.
		if old.state.indexes[level] == s {
			next.state.indexes[level] = builtSlot(clone)
			migrated++
			nodesRecomputed += len(d)
		}
		c.mu.Unlock()
	}
	c.refreshes.Add(int64(migrated))
	c.recomputed.Add(int64(nodesRecomputed))
	return migrated, nodesRecomputed, dirty, dirtyLevel
}

// EvictGraph drops every cached index of the graph entry (all levels).
// Called when a graph is deregistered. A build racing with the eviction
// leaves a harmless orphan key: its entry can never be resolved again,
// so it is never served and ages out of the LRU.
func (c *IndexCache) EvictGraph(e *GraphEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key := range c.keys {
		if key.Entry == e {
			c.evictLocked(key)
		}
	}
}

// Len returns the number of (entry, level) places the LRU counts
// against its capacity, in-flight builds of published versions
// included.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}

// Builds returns the number of full index constructions the cache has
// started — the cache's effectiveness metric (and the single-flight
// test's witness). Incremental refreshes do not count; their absence
// from this counter under a mutation workload is the dynamic
// subsystem's witness.
func (c *IndexCache) Builds() int64 { return c.builds.Load() }

// Refreshes returns the number of cached indexes migrated across graph
// versions by incremental repair instead of a rebuild.
func (c *IndexCache) Refreshes() int64 { return c.refreshes.Load() }

// NodesRecomputed returns the total index entries recomputed across all
// refreshes — against NumNodes × Refreshes, the measured locality of
// the update workload.
func (c *IndexCache) NodesRecomputed() int64 { return c.recomputed.Load() }

// trimLocked evicts least recently used keys until the LRU fits its
// capacity.
func (c *IndexCache) trimLocked() {
	for c.lru.Len() > c.capacity {
		c.evictLocked(c.lru.Back().Value.(IndexKey))
	}
}

// evictLocked drops the key from the LRU and clears its level in the
// entry's published version. An evicted in-flight build keeps building
// for the readers already blocked on it; it is simply no longer
// findable, so a later Get rebuilds.
func (c *IndexCache) evictLocked(key IndexKey) {
	c.removeLocked(key)
	delete(key.Entry.Snapshot().state.indexes, key.MaxLevel)
}

// removeLocked drops the key from the LRU, if present.
func (c *IndexCache) removeLocked(key IndexKey) {
	if el, ok := c.keys[key]; ok {
		c.lru.Remove(el)
		delete(c.keys, key)
	}
}
