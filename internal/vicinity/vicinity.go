// Package vicinity precomputes and maintains the per-node vicinity-size
// index |V^h_v| that the paper's rejection and importance samplers
// require (§4.2: "|V^h_v|'s (h = 1, ..., hm) can be pre-computed offline
// by doing a hm-hop BFS from each node in the graph. The space cost is
// only O(|V|) for each vicinity level").
//
// Construction runs one bounded-depth BFS per node, fanned out over a
// goroutine pool; each worker owns a private BFS engine so the scan is
// embarrassingly parallel. The index also supports the incremental
// maintenance the paper alludes to ("once we obtain the index, it can be
// efficiently updated as the graph changes"): an edge flip only perturbs
// the h-vicinities of nodes within h hops of its endpoints.
package vicinity

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"tesc/internal/graph"
)

// Index stores |V^h_v| for every node v and level h = 1..MaxLevel.
type Index struct {
	g        *graph.Graph
	maxLevel int
	sizes    [][]int32 // sizes[h-1][v] = |V^h_v|
}

// Options configures index construction.
type Options struct {
	// Workers is the goroutine-pool size; 0 means GOMAXPROCS.
	Workers int
}

// Build computes the index for levels 1..maxLevel over g.
func Build(g *graph.Graph, maxLevel int, opts Options) (*Index, error) {
	nodes := make([]graph.NodeID, g.NumNodes())
	for v := range nodes {
		nodes[v] = graph.NodeID(v)
	}
	return BuildForNodes(g, nodes, maxLevel, opts)
}

// computeNode runs one maxLevel-hop BFS from v and fills sizes[*][v]
// from the traversal's level ends.
func (idx *Index) computeNode(bfs *graph.BFS, v graph.NodeID) {
	bfs.Collect([]graph.NodeID{v}, idx.maxLevel)
	ends := bfs.LevelEnds()
	for h := 1; h <= idx.maxLevel; h++ {
		idx.sizes[h-1][v] = int32(ends[min(h, len(ends)-1)])
	}
}

// computeNodes fills the entries of nodes over idx.g. Up to one chunk
// of nodes, or a single worker, runs on the calling goroutine: a small
// repair is cheaper single-threaded than over a pool. Larger lists are
// handed out in chunks to up to workers goroutines (0 means
// GOMAXPROCS), each with a private BFS engine.
func (idx *Index) computeNodes(nodes []graph.NodeID, workers int) {
	const chunk = 256
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if len(nodes) <= chunk || workers == 1 {
		bfs := graph.NewBFS(idx.g)
		for _, v := range nodes {
			idx.computeNode(bfs, v)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, (len(nodes)+chunk-1)/chunk) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bfs := graph.NewBFS(idx.g)
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
	idx := &Index{g: g, maxLevel: maxLevel}
	idx.sizes = make([][]int32, maxLevel)
	for h := range idx.sizes {
		idx.sizes[h] = make([]int32, g.NumNodes())
	}
	idx.computeNodes(nodes, opts.Workers)
	return idx, nil
}

// FromSizes reconstructs an index from persisted per-level size
// columns, taking ownership of the slices: sizes[h-1][v] = |V^h_v|,
// exactly the layout Sizes exposes. It is the trust boundary for
// indexes deserialized from disk, so the shape and the cheap semantic
// invariants are enforced: every column spans the graph's node count,
// and each node's sizes are non-decreasing in h and at most |V|
// (vicinities only grow with the level; zeros are legal — BuildForNodes
// leaves unqueried entries at zero). The expensive invariant — that the
// values match a BFS recount — is the caller's integrity problem
// (checksums), not a load-time recomputation.
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
	return &Index{g: g, maxLevel: len(sizes), sizes: sizes}, nil
}

// MaxLevel returns the largest level the index covers.
func (idx *Index) MaxLevel() int { return idx.maxLevel }

// Graph returns the graph the index was built over.
func (idx *Index) Graph() *graph.Graph { return idx.g }

// Sizes returns the full |V^h_·| column for level h. The slice aliases
// internal storage and must not be modified.
func (idx *Index) Sizes(h int) []int32 {
	idx.checkLevel(h)
	return idx.sizes[h-1]
}

// Weights returns the |V^h_v| values of the given nodes as float64s, the
// weight vector for alias-table construction.
func (idx *Index) Weights(nodes []graph.NodeID, h int) []float64 {
	idx.checkLevel(h)
	col := idx.sizes[h-1]
	out := make([]float64, len(nodes))
	for i, v := range nodes {
		out[i] = float64(col[v])
	}
	return out
}

// Clone returns an independent copy of the index: the sizes arrays are
// deep-copied, the graph binding is shared (it is immutable). The
// serving tier uses copy-on-write maintenance — clone, ApplyDeltaDirty on
// the clone, publish — so in-flight queries keep reading a consistent
// (graph, index) pair while the successor is repaired.
func (idx *Index) Clone() *Index {
	out := &Index{g: idx.g, maxLevel: idx.maxLevel}
	out.sizes = make([][]int32, len(idx.sizes))
	for h, col := range idx.sizes {
		out.sizes[h] = make([]int32, len(col))
		copy(out.sizes[h], col)
	}
	return out
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
// multi-source Batch BFS (Algorithm 1).
//
// Besides index repair (ApplyDeltaDirty), the set is exactly the
// invalidation set a density cache keyed by reference node needs after
// an edge mutation — the monitor subsystem's standing queries
// recompute densities only for sampled reference nodes in this set.
func DirtySet(oldG, newG *graph.Graph, changes []graph.EdgeChange, maxLevel int) ([]graph.NodeID, error) {
	if maxLevel < 1 {
		return nil, fmt.Errorf("vicinity: maxLevel must be >= 1, got %d", maxLevel)
	}
	if newG.NumNodes() != oldG.NumNodes() {
		return nil, fmt.Errorf("vicinity: delta node count %d != %d", newG.NumNodes(), oldG.NumNodes())
	}
	if len(changes) == 0 {
		return nil, nil
	}

	// Distinct flipped endpoints.
	seen := make(map[graph.NodeID]struct{}, len(changes)*2)
	endpoints := make([]graph.NodeID, 0, len(changes)*2)
	for _, c := range changes {
		for _, v := range [2]graph.NodeID{c.U, c.V} {
			if !oldG.Valid(v) {
				return nil, fmt.Errorf("vicinity: change endpoint %d outside node range [0,%d)", v, oldG.NumNodes())
			}
			if _, ok := seen[v]; !ok {
				seen[v] = struct{}{}
				endpoints = append(endpoints, v)
			}
		}
	}

	dirty := graph.NewBFS(oldG).SetVicinity(endpoints, maxLevel, nil)
	dirtyMark := make([]bool, oldG.NumNodes())
	for _, v := range dirty {
		dirtyMark[v] = true
	}
	for _, v := range graph.NewBFS(newG).Collect(endpoints, maxLevel) {
		if !dirtyMark[v] {
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
// over opts.Workers goroutines like Build.
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
	dirty, err := DirtySet(idx.g, newG, changes, idx.maxLevel)
	if err != nil {
		return nil, err
	}
	idx.g = newG
	idx.computeNodes(dirty, opts.Workers)
	return dirty, nil
}

func (idx *Index) checkLevel(h int) {
	if h < 1 || h > idx.maxLevel {
		panic(fmt.Sprintf("vicinity: level %d outside [1, %d]", h, idx.maxLevel))
	}
}
