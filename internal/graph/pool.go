package graph

import "sync"

// EnginePool is a free list of BFS engines bound to one graph snapshot.
//
// Every BFS engine owns an O(|V|) epoch-stamped mark array (plus
// a visit buffer that grows to the largest traversal seen), so a
// serving tier that allocates a fresh engine per query pays an O(|V|)
// clear-page bill on every request. Pooling the engines amortizes the
// allocation across queries: a worker takes an engine, runs any number
// of traversals, and returns it warm.
//
// The pool is keyed to exactly one graph. Because graphs are immutable
// and a mutation publishes a *new* graph snapshot, binding the pool to
// the snapshot makes version invalidation automatic: the serving tier
// creates a fresh pool for the successor snapshot and drops the old one
// (tescd does this per GraphEntry, see server.GraphEntry.EnginePool).
// Engines bound to a different graph are rejected by Put, so a stale
// engine can never serve a new version's traversals.
//
// All methods are safe for concurrent use.
type EnginePool struct {
	g *Graph
	p sync.Pool
}

// NewEnginePool returns an empty pool of BFS engines for g.
func NewEnginePool(g *Graph) *EnginePool {
	ep := &EnginePool{g: g}
	ep.p.New = func() any { return NewBFS(g) }
	return ep
}

// Get takes an engine from the pool, allocating a new one when the pool
// is empty. Return it with Put when the traversal burst is done.
func (ep *EnginePool) Get() *BFS { return ep.p.Get().(*BFS) }

// Acquire returns an engine bound to g: one from the pool when the pool
// is non-nil and bound to g, else a fresh one. Either way, release it
// with Put on the same (possibly nil) pool, which recycles only the
// pooled kind.
func (ep *EnginePool) Acquire(g *Graph) *BFS {
	if ep != nil && ep.g == g {
		return ep.Get()
	}
	return NewBFS(g)
}

// Put returns an engine to the pool. Engines bound to a different graph
// are dropped silently — the caller may hold an engine across a graph
// mutation, and recycling it into the successor's pool would serve
// traversals over the wrong snapshot. A nil pool drops every engine.
func (ep *EnginePool) Put(b *BFS) {
	if ep == nil || b == nil || b.g != ep.g {
		return
	}
	ep.p.Put(b)
}
