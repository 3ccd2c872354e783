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

// IndexKey identifies one cached vicinity index: the paper's offline
// |V^h_v| structure is per-graph and per-maximum-level (§4.2). The
// graph is identified by its registry entry, not its name, so deleting
// a graph and re-registering a different one under the same name can
// never serve the old graph's index.
type IndexKey struct {
	Entry    *GraphEntry
	MaxLevel int
}

// IndexCache is an LRU cache of vicinity indexes with single-flight
// construction: concurrent Get calls for the same key block on one
// build instead of each running the full O(|V|) BFS scan. Because an
// index covers all levels 1..MaxLevel, a query for level h is also
// served by any cached index of the same graph with MaxLevel ≥ h.
// Entries are evicted least-recently-used once Capacity is exceeded;
// a failed build is not cached, so the next Get retries.
//
// The cache is graph-version aware: each entry records the
// Snapshot.GraphVersion its index is bound to, and a lookup only hits
// when the versions agree (the index-backed samplers reject a
// mismatched index anyway). Edge mutations do not evict — Refresh
// migrates every cached index to the successor version by cloning it
// and repairing only the entries the flipped edges can have perturbed
// (VicinityIndex.ApplyDelta), which is the serving-tier payoff of the
// paper's "the index can be efficiently updated as the graph changes"
// (§4.2).
type IndexCache struct {
	capacity   int
	builds     atomic.Int64
	refreshes  atomic.Int64
	recomputed atomic.Int64

	// build constructs the index; overridable by tests to count or
	// stall construction.
	build func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error)

	mu      sync.Mutex
	entries map[IndexKey]*cacheEntry
	lru     *list.List // front = most recently used; values are *cacheEntry

	// stale holds single-flight builds for readers whose snapshot the
	// cache has already moved past (a mutation landed mid-query). They
	// are not LRU-cached — the version is dead — but concurrent stale
	// readers of the same version share one build instead of each
	// paying a full scan.
	stale map[staleKey]*cacheEntry
}

// staleKey identifies one dead-version build: cache key + the graph
// version the lagging readers are bound to.
type staleKey struct {
	IndexKey
	gv uint64
}

type cacheEntry struct {
	key   IndexKey
	gv    uint64 // Snapshot.GraphVersion the index is (being) built for
	elem  *list.Element
	ready chan struct{} // closed when idx/err are set
	done  bool          // set under IndexCache.mu once the build finished
	idx   *tesc.VicinityIndex
	err   error

	// waiters counts the readers that joined a stale side build instead
	// of starting it (under IndexCache.mu): the witness that they all
	// share it.
	waiters int
}

// NewIndexCache returns a cache holding at most capacity indexes
// (capacity < 1 means 1).
func NewIndexCache(capacity int) *IndexCache {
	if capacity < 1 {
		capacity = 1
	}
	return &IndexCache{
		capacity: capacity,
		build: func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error) {
			return g.BuildVicinityIndex(maxLevel, workers)
		},
		entries: make(map[IndexKey]*cacheEntry),
		lru:     list.New(),
		stale:   make(map[staleKey]*cacheEntry),
	}
}

// Get returns a vicinity index covering maxLevel for the snapshot's
// graph, building one with the given worker count on a miss. Exactly
// one build runs per (key, graph version) regardless of how many
// goroutines ask concurrently; the others wait for that build to
// finish. A completed index of the same graph version with a higher
// MaxLevel is reused instead of building a redundant lower-level one.
//
// The returned index is always bound to exactly snap.Graph. When the
// cache has already moved past the caller's snapshot (a mutation
// refreshed the entries mid-query), the index is built privately for
// the old snapshot and not cached, so a slow reader can never clobber
// the current version.
func (c *IndexCache) Get(e *GraphEntry, snap Snapshot, maxLevel, workers int) (*tesc.VicinityIndex, error) {
	key := IndexKey{Entry: e, MaxLevel: maxLevel}

	c.mu.Lock()
	if ce, ok := c.entries[key]; ok {
		switch {
		case ce.gv == snap.GraphVersion:
			c.lru.MoveToFront(ce.elem)
			c.mu.Unlock()
			<-ce.ready
			return ce.idx, ce.err
		case ce.gv > snap.GraphVersion:
			// The cache is ahead of this reader's snapshot: serve the
			// stale version with a single-flight side build, shared by
			// every reader still bound to it.
			return c.getStaleLocked(snap, key, workers)
		default:
			// The entry lags the snapshot (e.g. its build was in flight
			// during a mutation): replace it.
			c.removeLocked(ce)
		}
	}
	// A deeper completed index of the same graph version covers this
	// level (done is only written under c.mu, so the read is safe here).
	for k, ce := range c.entries {
		if k.Entry == e && k.MaxLevel > maxLevel && ce.done && ce.err == nil && ce.gv == snap.GraphVersion {
			c.lru.MoveToFront(ce.elem)
			c.mu.Unlock()
			return ce.idx, nil
		}
	}
	ce := &cacheEntry{key: key, gv: snap.GraphVersion, ready: make(chan struct{})}
	ce.elem = c.lru.PushFront(ce)
	c.entries[key] = ce
	c.evictLocked()
	c.mu.Unlock()

	c.builds.Add(1)
	ce.idx, ce.err = c.build(snap.Graph, maxLevel, workers)
	close(ce.ready)

	c.mu.Lock()
	ce.done = true
	if ce.err != nil {
		// Drop the failed entry unless it was already evicted or
		// replaced while building.
		if cur, ok := c.entries[key]; ok && cur == ce {
			c.removeLocked(ce)
		}
	}
	c.mu.Unlock()
	return ce.idx, ce.err
}

// getStaleLocked serves a reader whose snapshot the cache has moved
// past. Called with c.mu held; releases it. The build is single-flight
// per (key, dead version) and the result is dropped once every waiter
// has it — dead versions must not pin memory.
func (c *IndexCache) getStaleLocked(snap Snapshot, key IndexKey, workers int) (*tesc.VicinityIndex, error) {
	sk := staleKey{IndexKey: key, gv: snap.GraphVersion}
	if ce, ok := c.stale[sk]; ok {
		ce.waiters++
		c.mu.Unlock()
		<-ce.ready
		return ce.idx, ce.err
	}
	ce := &cacheEntry{key: key, gv: snap.GraphVersion, ready: make(chan struct{})}
	c.stale[sk] = ce
	c.mu.Unlock()

	c.builds.Add(1)
	ce.idx, ce.err = c.build(snap.Graph, key.MaxLevel, workers)
	close(ce.ready)

	c.mu.Lock()
	delete(c.stale, sk)
	c.mu.Unlock()
	return ce.idx, ce.err
}

// Put installs a prebuilt index — one deserialized from a snapshot —
// under the entry at the snapshot's graph version. It does not count
// as a build: the whole point of warm-starting is that Builds stays at
// zero while the first queries hit the cache.
func (c *IndexCache) Put(e *GraphEntry, snap Snapshot, idx *tesc.VicinityIndex) {
	key := IndexKey{Entry: e, MaxLevel: idx.MaxLevel()}
	ce := &cacheEntry{key: key, gv: snap.GraphVersion, ready: make(chan struct{}), done: true, idx: idx}
	close(ce.ready)
	c.mu.Lock()
	defer c.mu.Unlock()
	if old, ok := c.entries[key]; ok {
		c.removeLocked(old)
	}
	ce.elem = c.lru.PushFront(ce)
	c.entries[key] = ce
	c.evictLocked()
}

// IndexesFor returns the completed, error-free cached indexes of the
// entry at the given graph version, in ascending MaxLevel order — the
// set a checkpoint persists alongside the graph.
func (c *IndexCache) IndexesFor(e *GraphEntry, gv uint64) []*tesc.VicinityIndex {
	c.mu.Lock()
	var out []*tesc.VicinityIndex
	for key, ce := range c.entries {
		if key.Entry == e && ce.done && ce.err == nil && ce.gv == gv {
			out = append(out, ce.idx)
		}
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].MaxLevel() < out[j].MaxLevel() })
	return out
}

// Refresh migrates every completed cached index of the entry from
// graph version old.GraphVersion to next: each index is cloned, the
// clone repaired incrementally with the applied edge changes
// (copy-on-write — readers of the old index are undisturbed), and the
// repaired clone republished under the new version. The repairs borrow
// their BFS engines from the entry's pools for both versions. Called by
// the mutation path with the entry's mutations serialized. In-flight
// builds are left behind on the old version; a later Get at the new
// version replaces them. It returns the number of migrated indexes and
// the total index entries recomputed across them, plus the
// flipped-vicinity node set of the deepest migrated index (and its
// level): the dirty ball the repair already had to compute, surfaced
// so the monitor scheduler can invalidate standing-query density
// caches without re-walking it. dirty is nil when nothing migrated.
func (c *IndexCache) Refresh(e *GraphEntry, old, next Snapshot, applied []graph.EdgeChange, workers int) (migrated, nodesRecomputed int, dirty []graph.NodeID, dirtyLevel int) {
	c.mu.Lock()
	var stale []*cacheEntry
	for key, ce := range c.entries {
		if key.Entry == e && ce.done && ce.err == nil && ce.gv == old.GraphVersion {
			stale = append(stale, ce)
		}
	}
	c.mu.Unlock()

	opts := vicinity.Options{Workers: workers}
	if len(stale) > 0 {
		opts.OldEngines, opts.Engines = e.EnginePool(old).Internal(), e.EnginePool(next).Internal()
	}
	for _, ce := range stale {
		clone := ce.idx.Clone()
		d, err := clone.Internal().ApplyDeltaDirty(next.Graph.Internal(), applied, opts)
		n := len(d)
		if err == nil && ce.key.MaxLevel > dirtyLevel {
			dirty, dirtyLevel = d, ce.key.MaxLevel
		}
		fresh := &cacheEntry{
			key:   ce.key,
			gv:    next.GraphVersion,
			ready: make(chan struct{}),
			done:  true,
			idx:   clone,
			err:   err,
		}
		close(fresh.ready)

		c.mu.Lock()
		if cur, ok := c.entries[ce.key]; ok && cur == ce {
			c.lru.Remove(ce.elem)
			delete(c.entries, ce.key)
			if err == nil {
				fresh.elem = c.lru.PushFront(fresh)
				c.entries[ce.key] = fresh
				migrated++
				nodesRecomputed += n
			}
		}
		c.mu.Unlock()
	}
	c.refreshes.Add(int64(migrated))
	c.recomputed.Add(int64(nodesRecomputed))
	return migrated, nodesRecomputed, dirty, dirtyLevel
}

// EvictGraph drops every cached index of the graph entry (all levels).
// Called when a graph is deregistered. An insert racing with the
// eviction leaves a harmless orphan: its key's entry pointer can never
// be resolved again, so it is never served and ages out of the LRU.
func (c *IndexCache) EvictGraph(e *GraphEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for key, ce := range c.entries {
		if key.Entry == e {
			c.removeLocked(ce)
		}
	}
}

// Len returns the number of cached (or in-flight) indexes.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
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

// evictLocked trims the LRU list to capacity. An evicted in-flight
// entry keeps building for its current waiters; it is simply no longer
// findable, so a later Get rebuilds.
func (c *IndexCache) evictLocked() {
	for len(c.entries) > c.capacity {
		oldest := c.lru.Back()
		if oldest == nil {
			return
		}
		c.removeLocked(oldest.Value.(*cacheEntry))
	}
}

func (c *IndexCache) removeLocked(ce *cacheEntry) {
	c.lru.Remove(ce.elem)
	delete(c.entries, ce.key)
}
