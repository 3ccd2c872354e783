package graph

import "math"

// BFS is a reusable breadth-first-search engine over a fixed graph.
// Its one traversal, Collect (CollectPrefix is Collect stopped early),
// is the repository's only h-hop BFS kernel.
//
// TESC testing performs thousands of h-hop BFS traversals per event pair
// (one per density evaluation, plus the traversals inside the samplers),
// so the engine keeps its visit buffer and an epoch-stamped visited
// array across calls: after warm-up a traversal performs zero heap
// allocations. The engine is NOT safe for concurrent use; create one per
// goroutine (see NewBFS).
type BFS struct {
	g       *Graph
	visited []NodeID // Collect's flat visit-order buffer
	ends    []int    // Collect's level ends, see LevelEnds

	// Dense visited stamps, one byte per node, so the randomly probed
	// working set stays small — the probe is the hot load of the
	// traversal. Epochs 1..255 cycle; the wrap clear is a vectorized
	// memclr (~µs per 255 traversals).
	mark  []uint8
	epoch uint8
}

// NewBFS returns a BFS engine bound to g.
func NewBFS(g *Graph) *BFS {
	return &BFS{
		g:    g,
		mark: make([]uint8, g.NumNodes()),
	}
}

// Graph returns the graph the engine is bound to.
func (b *BFS) Graph() *Graph { return b.g }

// Collect performs a breadth-first search of depth at most h starting
// from sources and returns every distinct reached node in visit order:
// the sources first (duplicates once), then each BFS level in turn,
// each node's unvisited neighbors in adjacency order. h < 0 visits
// nothing. The visited set is accumulated level by level in one flat
// buffer that doubles as the frontier queue (nodes of BFS level d
// occupy a contiguous run of the buffer, see LevelEnds), so the hot
// loop pays no per-node indirect call. The returned slice aliases the
// engine's internal buffer: it is valid only until the next traversal
// on this engine, and callers may reorder it in place.
//
// With len(sources) > 1 this is exactly the paper's Batch BFS
// (Algorithm 1): the multi-source traversal that retrieves V^h of a node
// set in one pass, equivalent to an (h+1)-hop BFS from a virtual node
// attached to every source, with worst-case cost O(|V|+|E|) instead of
// O(|sources|·(|V|+|E|)).
//
// This is the traversal half of the repository's decoupled
// traversal/computation kernels (docs/PERFORMANCE.md): callers scan the
// returned slice with flat array kernels.
func (b *BFS) Collect(sources []NodeID, h int) []NodeID {
	return b.collect(sources, h, math.MaxInt)
}

// CollectPrefix is Collect from the single source src, stopped once the
// visit buffer holds at least limit nodes: it returns a prefix of
// Collect([]NodeID{src}, h) that is limit or more nodes long, or the
// whole vicinity when it is shorter. The limit is tested once per
// expanded adjacency row, so the prefix may run past limit by up to one
// row. LevelEnds then describes the prefix only: its last entry may end
// a level part-way. The samplers use it to resolve a drawn position of
// V^h_src without visiting the rest of the ball.
func (b *BFS) CollectPrefix(src NodeID, h, limit int) []NodeID {
	return b.collect([]NodeID{src}, h, limit)
}

func (b *BFS) collect(sources []NodeID, h, limit int) []NodeID {
	vis := b.visited[:0]
	b.ends = b.ends[:0]
	if h < 0 {
		return vis
	}
	b.epoch++
	if b.epoch == 0 {
		clear(b.mark)
		b.epoch = 1
	}
	mark, epoch := b.mark, b.epoch
	for _, s := range sources {
		if mark[s] != epoch {
			mark[s] = epoch
			vis = append(vis, s)
		}
	}
	b.visited = vis
	b.ends = append(b.ends, len(vis))
	for depth, lo := 1, 0; depth <= h && len(b.visited) < limit; depth++ {
		hi := len(b.visited)
		b.expand(lo, hi, limit)
		if len(b.visited) == hi {
			break // level depth is empty: nothing further is reachable
		}
		b.ends = append(b.ends, len(b.visited))
		lo = hi
	}
	return b.visited
}

// expand appends the unvisited neighbors of visited[lo:hi] — one BFS
// level — to the visit buffer, stamping them, and stops after the row
// that brings the buffer to limit nodes or more. It is a function of
// its own so that the level bookkeeping stays out of the hot loop's
// registers.
//
// The loop is branchless in the visited test: marking is idempotent so
// the stamp store runs unconditionally, the candidate is written to the
// buffer unconditionally, and the cursor advances by the comparison
// result (SETcc + ADD, no branch). The visited probe is a ~50%
// data-dependent branch in overlapping vicinities — exactly what branch
// predictors can't learn — so trading it for a dead store measurably
// beats the naive loop.
func (b *BFS) expand(lo, hi, limit int) {
	buf := b.visited[:cap(b.visited)]
	n := len(b.visited)
	mark, epoch := b.mark, b.epoch
	pages := b.g.pages
	for j := lo; j < hi; j++ {
		v := buf[j]
		p, i := &pages[v>>pageShift], v&pageMask
		row := p.adj[p.off[i]:p.off[i+1]]
		if len(buf)-n < len(row) {
			grown := make([]NodeID, (n+len(row))*2+64)
			copy(grown, buf[:n])
			buf = grown
		}
		for _, u := range row {
			inc := 0
			if mark[u] != epoch {
				inc = 1
			}
			mark[u] = epoch
			buf[n] = u
			n += inc
		}
		if n >= limit {
			break
		}
	}
	b.visited = buf[:n]
}

// LevelEnds returns the level boundaries of the last Collect: ends[d]
// is the number of visited nodes at depth <= d, so level d is
// visited[ends[d-1]:ends[d]] (level 0, the sources, is
// visited[:ends[0]]), and len(ends)-1 is the depth of the deepest node
// reached. Empty after a traversal with h < 0. The slice aliases
// engine scratch, valid until the next traversal.
func (b *BFS) LevelEnds() []int { return b.ends }

// Visited reports whether the last Collect reached v. It is meaningful
// only after a Collect with h >= 0.
func (b *BFS) Visited(v NodeID) bool { return b.mark[v] == b.epoch }

// VicinitySize returns |V^h_u|, the node count of u's h-vicinity.
func (b *BFS) VicinitySize(u NodeID, h int) int {
	return len(b.Collect([]NodeID{u}, h))
}

// SetVicinity appends every node of the h-vicinity of the node set
// sources (Definition 2; with one source, Definition 1's V^h_u) to out
// and returns the extended slice: the paper's Batch BFS (Algorithm 1)
// materializing V^h_{a∪b}.
func (b *BFS) SetVicinity(sources []NodeID, h int, out []NodeID) []NodeID {
	return append(out, b.Collect(sources, h)...)
}

// Eccentricity returns the largest BFS depth reached from u (the
// eccentricity of u within its connected component).
func (b *BFS) Eccentricity(u NodeID) int {
	b.Collect([]NodeID{u}, b.g.NumNodes())
	return len(b.ends) - 1
}

// NodesAtDistance appends to out every node at hop distance exactly d
// from u and returns the extended slice.
func (b *BFS) NodesAtDistance(u NodeID, d int, out []NodeID) []NodeID {
	vis := b.Collect([]NodeID{u}, d)
	if d < 0 || d >= len(b.ends) {
		return out
	}
	lo := 0
	if d > 0 {
		lo = b.ends[d-1]
	}
	return append(out, vis[lo:b.ends[d]]...)
}
