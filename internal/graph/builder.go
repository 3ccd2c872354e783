package graph

import (
	"fmt"
	"slices"
)

// Builder accumulates edges and produces an immutable Graph.
//
// The builder is forgiving: duplicate edges, reversed duplicates and
// self-loops may be added freely and are dropped during Build, matching
// the simple undirected graphs assumed by the paper (§2). Node count may
// either be fixed up front with NewBuilder or grow implicitly to the
// largest endpoint seen.
type Builder struct {
	n     int
	edges [][2]NodeID
	fixed bool
}

// NewBuilder returns a builder for a graph with exactly n nodes
// (IDs 0..n-1). Edges with endpoints outside that range cause Build to
// fail.
func NewBuilder(n int) *Builder {
	if n < 0 || n > MaxNodes {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	return &Builder{n: n, fixed: true}
}

// NewGrowingBuilder returns a builder whose node count is one more than
// the largest endpoint added.
func NewGrowingBuilder() *Builder { return &Builder{} }

// EnsureNodes raises the builder's node count to n when it is smaller,
// so a growing builder keeps isolated nodes past its largest endpoint
// (an edge list's "# nodes N" header).
func (b *Builder) EnsureNodes(n int) {
	if n > MaxNodes {
		panic(fmt.Sprintf("graph: invalid node count %d", n))
	}
	b.n = max(b.n, n)
}

// AddEdge records the undirected edge {u, v}.
func (b *Builder) AddEdge(u, v NodeID) {
	b.edges = append(b.edges, [2]NodeID{u, v})
	if !b.fixed {
		b.n = max(b.n, int(u)+1, int(v)+1)
	}
}

// Build validates endpoints, symmetrizes, deduplicates, drops self-loops
// and returns the CSR graph, whose pages alias one flat offsets array
// and one flat adjacency array. The builder can be reused afterwards;
// its pending edges are retained.
func (b *Builder) Build() (*Graph, error) {
	n := b.n
	for _, e := range b.edges {
		if e[0] < 0 || int(e[0]) >= n || e[1] < 0 || int(e[1]) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) outside node range [0,%d)", e[0], e[1], n)
		}
	}

	// Count adjacency-list sizes (both directions), excluding self-loops,
	// into offsets[v+1]; the prefix sum turns them into row starts.
	offsets := make([]int64, n+1)
	for _, e := range b.edges {
		if e[0] != e[1] {
			offsets[e[0]+1]++
			offsets[e[1]+1]++
		}
	}
	for v := 0; v < n; v++ {
		offsets[v+1] += offsets[v]
	}
	adj := make([]NodeID, offsets[n])
	cursor := make([]int64, n)
	copy(cursor, offsets)
	for _, e := range b.edges {
		u, v := e[0], e[1]
		if u == v {
			continue
		}
		adj[cursor[u]] = v
		cursor[u]++
		adj[cursor[v]] = u
		cursor[v]++
	}

	// Sort each adjacency list and remove duplicates in place. Row v's
	// compacted start overwrites offsets[v] once the row has been read.
	w, lo := int64(0), int64(0)
	for v := 0; v < n; v++ {
		hi := offsets[v+1]
		ns := adj[lo:hi]
		slices.Sort(ns)
		offsets[v] = w
		var prev NodeID = -1
		for _, u := range ns {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
		lo = hi
	}
	offsets[n] = w
	if w < int64(len(adj)) {
		adj = slices.Clone(adj[:w])
	}
	return paged(offsets, adj), nil
}

// MustBuild is Build that panics on error, for tests and generators whose
// inputs are valid by construction.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds an n-node graph directly from an edge list.
func FromEdges(n int, edges [][2]NodeID) (*Graph, error) {
	b := NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}

// MustFromEdges is FromEdges that panics on error.
func MustFromEdges(n int, edges [][2]NodeID) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Path returns the path graph 0-1-2-...-(n-1).
func Path(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i+1 < n; i++ {
		b.AddEdge(NodeID(i), NodeID(i+1))
	}
	return b.MustBuild()
}

// Cycle returns the cycle graph on n nodes (n >= 3).
func Cycle(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(NodeID(i), NodeID((i+1)%n))
	}
	return b.MustBuild()
}

// Complete returns the complete graph on n nodes.
func Complete(n int) *Graph {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(NodeID(i), NodeID(j))
		}
	}
	return b.MustBuild()
}

// Star returns the star graph: node 0 connected to 1..n-1.
func Star(n int) *Graph {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(0, NodeID(i))
	}
	return b.MustBuild()
}

// Grid returns the rows×cols 4-neighbor lattice, a useful analogue of the
// continuous spatial spaces the point-pattern literature studies.
func Grid(rows, cols int) *Graph {
	b := NewBuilder(rows * cols)
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				b.AddEdge(id(r, c), id(r, c+1))
			}
			if r+1 < rows {
				b.AddEdge(id(r, c), id(r+1, c))
			}
		}
	}
	return b.MustBuild()
}
