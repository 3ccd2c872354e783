// Package vicinity precomputes and maintains the per-node vicinity-size
// index |V^h_v| that the paper's rejection and importance samplers
// require (§4.2: "|V^h_v|'s (h = 1, ..., hm) can be pre-computed offline
// by doing a hm-hop BFS from each node in the graph. The space cost is
// only O(|V|) for each vicinity level").
//
// Construction runs one bounded-depth BFS per node, fanned out over a
// goroutine pool; each worker has a BFS engine of its own so the scan
// is embarrassingly parallel. The index also supports the incremental
// maintenance the paper alludes to ("once we obtain the index, it can be
// efficiently updated as the graph changes"): an edge flip only perturbs
// the h-vicinities of nodes within h hops of its endpoints, and a
// repaired copy of the index copies only the pages of sizes it
// rewrites.
package vicinity

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"tesc/internal/graph"
)

// Index stores |V^h_v| for every node v and level h = 1..MaxLevel, in
// pages of pageRows consecutive nodes per level. A clone shares every
// page with its original until one of them repairs a node of the page
// (copy-on-write, see Clone), so a repair copies only the pages it
// writes.
type Index struct {
	g        *graph.Graph
	maxLevel int
	pages    [][][]int32 // pages[h-1][v>>pageShift][v&pageMask] = |V^h_v|
	owned    []bool      // owned[p]: page p of every level is this index's alone
}

// A page holds the sizes of pageRows consecutive nodes at one level.
const (
	pageShift = 8
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// Options configures index construction and repair.
type Options struct {
	// Workers is the goroutine-pool size; 0 means GOMAXPROCS.
	Workers int
	// Engines lends the BFS engines bound to the graph the index is
	// built over or repaired to; OldEngines, for a repair, those bound
	// to the graph it is repaired from. A nil pool, or one bound to
	// another graph, lends fresh engines.
	Engines, OldEngines *graph.EnginePool
}

// newIndex returns an index over g holding the given per-level size
// columns (cols[h-1][v] = |V^h_v|). Its pages alias the columns and
// are all its own.
func newIndex(g *graph.Graph, cols [][]int32) *Index {
	n := g.NumNodes()
	numPages := (n + pageMask) >> pageShift
	idx := &Index{g: g, maxLevel: len(cols), pages: make([][][]int32, len(cols)), owned: make([]bool, numPages)}
	for h, col := range cols {
		level := make([][]int32, numPages)
		for p := range level {
			lo := p << pageShift
			hi := min(lo+pageRows, n)
			level[p] = col[lo:hi:hi]
		}
		idx.pages[h] = level
	}
	for p := range idx.owned {
		idx.owned[p] = true
	}
	return idx
}

// Build computes the index for levels 1..maxLevel over g.
func Build(g *graph.Graph, maxLevel int, opts Options) (*Index, error) {
	nodes := make([]graph.NodeID, g.NumNodes())
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	return BuildForNodes(g, nodes, maxLevel, opts)
}

// computeNode runs one maxLevel-hop BFS from v and fills v's size at
// every level from the traversal's level ends.
func (idx *Index) computeNode(bfs *graph.BFS, v graph.NodeID) {
	bfs.Collect([]graph.NodeID{v}, idx.maxLevel)
	ends := bfs.LevelEnds()
	p, i := v>>pageShift, v&pageMask
	for h, level := range idx.pages {
		level[p][i] = int32(ends[min(h+1, len(ends)-1)])
	}
}

// computeNodes fills the entries of nodes over idx.g, whose pages the
// index must own. Up to one chunk of nodes, or a single worker, runs on
// the calling goroutine: a small repair is cheaper single-threaded than
// over a pool. Larger lists are handed out in chunks to up to workers
// goroutines (0 means GOMAXPROCS), each with its own BFS engine
// borrowed from engines.
func (idx *Index) computeNodes(nodes []graph.NodeID, workers int, engines *graph.EnginePool) {
	const chunk = 256
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(nodes) <= chunk || workers == 1 {
		bfs := engines.Acquire(idx.g)
		for _, v := range nodes {
			idx.computeNode(bfs, v)
		}
		engines.Put(bfs)
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, (len(nodes)+chunk-1)/chunk) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bfs := engines.Acquire(idx.g)
			defer engines.Put(bfs)
			for {
				lo := int(next.Add(chunk)) - chunk
				if lo >= len(nodes) {
					return
				}
				for _, v := range nodes[lo:min(lo+chunk, len(nodes))] {
					idx.computeNode(bfs, v)
				}
			}
		}()
	}
	wg.Wait()
}

// BuildForNodes computes the index entries for the given nodes only;
// entries of all other nodes are left at zero and must not be queried.
// The samplers only consult |V^h_v| for event nodes (§4.2), so a partial
// index over Va∪b suffices for a single test and costs |Va∪b| BFS
// traversals instead of |V| — the shortcut the efficiency experiments
// (Figure 9) use on the 20M-node graph, where full offline construction
// is a one-time cost the paper excludes from sampling time.
func BuildForNodes(g *graph.Graph, nodes []graph.NodeID, maxLevel int, opts Options) (*Index, error) {
	if maxLevel < 1 {
		return nil, fmt.Errorf("vicinity: maxLevel must be >= 1, got %d", maxLevel)
	}
	cols := make([][]int32, maxLevel)
	for h := range cols {
		cols[h] = make([]int32, g.NumNodes())
	}
	idx := newIndex(g, cols)
	idx.computeNodes(nodes, opts.Workers, opts.Engines)
	return idx, nil
}

// FromSizes reconstructs an index from persisted per-level size
// columns, taking ownership of the slices (the index's pages alias
// them): sizes[h-1][v] = |V^h_v|, the concatenation of Pages(h). It is
// the trust boundary for indexes deserialized from disk, so the shape
// and the cheap semantic invariants are enforced: every column spans
// the graph's node count, and each node's sizes are non-decreasing in
// h and at most |V| (vicinities only grow with the level; zeros are
// legal — BuildForNodes leaves unqueried entries at zero). The
// expensive invariant — that the values match a BFS recount — is the
// caller's integrity problem (checksums), not a load-time
// recomputation.
func FromSizes(g *graph.Graph, sizes [][]int32) (*Index, error) {
	if len(sizes) < 1 {
		return nil, fmt.Errorf("vicinity: restore needs at least one level")
	}
	n := g.NumNodes()
	for h, col := range sizes {
		if len(col) != n {
			return nil, fmt.Errorf("vicinity: level %d has %d entries, graph has %d nodes", h+1, len(col), n)
		}
	}
	for v := 0; v < n; v++ {
		prev := int32(0)
		for h, col := range sizes {
			s := col[v]
			if s < prev || int64(s) > int64(n) {
				return nil, fmt.Errorf("vicinity: |V^%d_%d| = %d invalid (prev level %d, n = %d)", h+1, v, s, prev, n)
			}
			prev = s
		}
	}
	return newIndex(g, sizes), nil
}

// MaxLevel returns the largest level the index covers.
func (idx *Index) MaxLevel() int { return idx.maxLevel }

// Graph returns the graph the index was built over.
func (idx *Index) Graph() *graph.Graph { return idx.g }

// Pages returns the |V^h_·| column for level h as consecutive pages:
// their concatenation holds |V^h_v| at position v. The slices alias
// internal storage and must not be modified.
func (idx *Index) Pages(h int) [][]int32 {
	idx.checkLevel(h)
	return idx.pages[h-1]
}

// Size returns |V^h_v|. It panics if h is outside [1, MaxLevel].
func (idx *Index) Size(v graph.NodeID, h int) int {
	idx.checkLevel(h)
	return int(idx.pages[h-1][v>>pageShift][v&pageMask])
}

// Weights returns the |V^h_v| values of the given nodes as float64s, the
// weight vector for alias-table construction.
func (idx *Index) Weights(nodes []graph.NodeID, h int) []float64 {
	idx.checkLevel(h)
	level := idx.pages[h-1]
	out := make([]float64, len(nodes))
	for i, v := range nodes {
		out[i] = float64(level[v>>pageShift][v&pageMask])
	}
	return out
}

// Clone returns an independent copy of the index that shares its pages
// and its graph binding (the graph is immutable). Clone gives up the
// ownership of every page on both sides, so whichever of the two
// repairs a node first copies that node's pages and the other never
// sees the write. The serving tier uses copy-on-write maintenance —
// clone, ApplyDeltaDirty on the clone, publish — so in-flight queries
// keep reading a consistent (graph, index) pair while the successor is
// repaired, and the repair copies only the pages it writes. Clone may
// run concurrently with reads of the index, but not with another
// Clone or repair of it.
func (idx *Index) Clone() *Index {
	out := &Index{g: idx.g, maxLevel: idx.maxLevel, pages: make([][][]int32, len(idx.pages)), owned: make([]bool, len(idx.owned))}
	for h, level := range idx.pages {
		out.pages[h] = slices.Clone(level)
	}
	clear(idx.owned)
	return out
}

// claim makes the pages holding nodes the index's own, copying each
// shared one at every level, so that computeNodes's workers write
// only pages no other index reads.
func (idx *Index) claim(nodes []graph.NodeID) {
	for _, v := range nodes {
		p := v >> pageShift
		if idx.owned[p] {
			continue
		}
		for _, level := range idx.pages {
			level[p] = slices.Clone(level[p])
		}
		idx.owned[p] = true
	}
}

// DirtySet returns the nodes whose level-1..maxLevel vicinities can
// differ between oldG and newG when the two graphs are related by the
// given edge flips — the locality argument of §4.2 made explicit:
// |V^h_x| (and any derived quantity, such as an event density measured
// over V^h_x) can only change if some shortest path from x crossed the
// h threshold, and any such path runs through an endpoint of a flipped
// edge — in the new graph for insertions (the path uses the new edge),
// in the old graph for deletions (the vanished path used the old
// edge). The dirty set is therefore the union of the maxLevel-hop
// balls around the flipped endpoints in the old and new graphs — two
// multi-source Batch BFS (Algorithm 1), on engines borrowed from
// oldEngines (bound to oldG) and newEngines (bound to newG). The set
// lists the old ball in BFS discovery order, then the new ball's other
// nodes in theirs.
//
// Besides index repair (ApplyDeltaDirty), the set is exactly the
// invalidation set a density cache keyed by reference node needs after
// an edge mutation — the monitor subsystem's standing queries
// recompute densities only for sampled reference nodes in this set.
func DirtySet(oldG, newG *graph.Graph, changes []graph.EdgeChange, maxLevel int, oldEngines, newEngines *graph.EnginePool) ([]graph.NodeID, error) {
	if maxLevel < 1 {
		return nil, fmt.Errorf("vicinity: maxLevel must be >= 1, got %d", maxLevel)
	}
	if newG.NumNodes() != oldG.NumNodes() {
		return nil, fmt.Errorf("vicinity: delta node count %d != %d", newG.NumNodes(), oldG.NumNodes())
	}
	if len(changes) == 0 {
		return nil, nil
	}

	// The flipped endpoints; Collect visits each distinct source once.
	endpoints := make([]graph.NodeID, 0, len(changes)*2)
	for _, c := range changes {
		for _, v := range [2]graph.NodeID{c.U, c.V} {
			if !oldG.Valid(v) {
				return nil, fmt.Errorf("vicinity: change endpoint %d outside node range [0,%d)", v, oldG.NumNodes())
			}
		}
		endpoints = append(endpoints, c.U, c.V)
	}

	before := oldEngines.Acquire(oldG)
	defer oldEngines.Put(before)
	after := newEngines.Acquire(newG)
	defer newEngines.Put(after)
	oldBall, newBall := before.Collect(endpoints, maxLevel), after.Collect(endpoints, maxLevel)
	dirty := make([]graph.NodeID, len(oldBall), len(oldBall)+len(newBall))
	copy(dirty, oldBall)
	// The new ball's nodes outside the old one, by the old traversal's
	// visited marks.
	for _, v := range newBall {
		if !before.Visited(v) {
			dirty = append(dirty, v)
		}
	}
	return dirty, nil
}

// ApplyDeltaDirty repairs the index after the graph changed from its
// bound graph to newG by the given edge flips, rebinding it to newG. It
// implements the incremental maintenance the paper alludes to ("once we
// obtain the index, it can be efficiently updated as the graph
// changes", §4.2): only the DirtySet entries are recomputed, fanned out
// over opts.Workers goroutines like Build, after the index claims the
// pages they fall in (see Clone). Its traversals borrow engines from
// opts.OldEngines (over the bound graph) and opts.Engines (over newG).
//
// It returns the recomputed nodes. newG must have the same node count
// as the bound graph; changes may be empty (then newG must equal the
// bound graph's edge set and nothing is recomputed). The serving tier
// forwards the node set to the monitor scheduler, which intersects it
// with each standing query's sampled reference nodes — the same
// locality bound drives both the index repair and the density-cache
// invalidation, so the ball BFS is paid once per mutation. The returned
// slice is in BFS discovery order and owned by the caller.
func (idx *Index) ApplyDeltaDirty(newG *graph.Graph, changes []graph.EdgeChange, opts Options) ([]graph.NodeID, error) {
	dirty, err := DirtySet(idx.g, newG, changes, idx.maxLevel, opts.OldEngines, opts.Engines)
	if err != nil {
		return nil, err
	}
	idx.g = newG
	idx.claim(dirty)
	idx.computeNodes(dirty, opts.Workers, opts.Engines)
	return dirty, nil
}

func (idx *Index) checkLevel(h int) {
	if h < 1 || h > idx.maxLevel {
		panic(fmt.Sprintf("vicinity: level %d outside [1, %d]", h, idx.maxLevel))
	}
}
