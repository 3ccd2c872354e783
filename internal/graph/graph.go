// Package graph provides the compact, read-optimized undirected graph
// representation used throughout the TESC reproduction, together with the
// breadth-first-search machinery (single-source h-hop BFS and the paper's
// multi-source Batch BFS, Algorithm 1) that every reference-node sampler
// and density computation is built on.
//
// Graphs are stored in compressed sparse row (CSR) form, split into
// fixed pages of 256 consecutive rows, each with its own offsets and
// adjacency arrays. This keeps a 20M-node / 160M-edge graph (the
// paper's Twitter dataset) within a few GB and makes neighbor iteration
// a contiguous scan, which dominates the cost profile of h-hop BFS
// (Figure 10(a) of the paper). Pages let a mutated version share every
// page it does not change with its parent (see Delta.Compact).
package graph

import (
	"fmt"
	"math"
)

// NodeID identifies a node. Node IDs are dense: a graph with n nodes uses
// IDs 0..n-1. int32 halves the adjacency footprint relative to int and is
// sufficient for the paper's largest graph (20M nodes).
type NodeID int32

// MaxNodes is the largest node count a Graph supports.
const MaxNodes = math.MaxInt32

// A page holds the rows of pageRows consecutive nodes; node v is row
// v&pageMask of page v>>pageShift.
const (
	pageShift = 8
	pageRows  = 1 << pageShift
	pageMask  = pageRows - 1
)

// page is the CSR of one page's rows: row i's neighbors are
// adj[off[i]:off[i+1]]. The last page's rows past the graph's last node
// are empty. Pages are immutable, so graph versions share the pages
// they have in common. off is a fixed-size array so that indexing it
// by v&pageMask needs no bounds check in the BFS kernel.
type page struct {
	off *[pageRows + 1]int64
	adj []NodeID
}

// Graph is an immutable undirected graph in CSR form. Build one with a
// Builder. The zero value is an empty graph.
//
// Every edge {u, v} is stored twice (u→v and v→u); NumEdges reports the
// undirected count. Self-loops and duplicate edges are removed at build
// time so that vicinity sizes and densities match the paper's simple-graph
// setting.
type Graph struct {
	pages []page // pages[v>>pageShift] holds v's sorted adjacency list
	n     int    // number of nodes
	m     int64  // number of undirected edges
}

// paged returns the graph with the given flat CSR arrays (neighbors of v
// are adj[offsets[v]:offsets[v+1]]). Its pages alias the arrays, so
// nothing is copied but the offsets of a last page with fewer than
// pageRows nodes.
func paged(offsets []int64, adj []NodeID) *Graph {
	n := len(offsets) - 1
	pages := make([]page, (n+pageMask)>>pageShift)
	for i := range pages {
		lo := i << pageShift
		var off *[pageRows + 1]int64
		if lo+pageRows <= n {
			off = (*[pageRows + 1]int64)(offsets[lo:])
		} else {
			off = new([pageRows + 1]int64)
			tail := copy(off[:], offsets[lo:])
			for r := tail; r <= pageRows; r++ {
				off[r] = offsets[n]
			}
		}
		pages[i] = page{off: off, adj: adj[:off[pageRows]:off[pageRows]]}
	}
	return &Graph{pages: pages, n: n, m: int64(len(adj)) / 2}
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	p, i := &g.pages[v>>pageShift], v&pageMask
	return int(p.off[i+1] - p.off[i])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	p, i := &g.pages[v>>pageShift], v&pageMask
	return p.adj[p.off[i]:p.off[i+1]]
}

// ForEachPage calls fn once per page of rows, in node order, with the
// page's CSR: off has one entry more than the page has nodes, and the
// page's i-th node's neighbors are adj[off[i]:off[i+1]], so the page's
// arcs are adj[off[0]:off[len(off)-1]] in node order. The slices alias
// the graph's storage and must not be modified. It is the bulk read
// the snapshot encoder uses.
func (g *Graph) ForEachPage(fn func(off []int64, adj []NodeID)) {
	for p := range g.pages {
		rows := min(pageRows, g.n-p<<pageShift)
		fn(g.pages[p].off[:rows+1], g.pages[p].adj)
	}
}

// HasEdge reports whether the edge {u, v} exists, by binary search over
// the shorter of the two adjacency lists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	ns := g.Neighbors(u)
	lo, hi := 0, len(ns)
	for lo < hi {
		mid := (lo + hi) / 2
		if ns[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(ns) && ns[lo] == v
}

// Valid reports whether v is a node of g.
func (g *Graph) Valid(v NodeID) bool {
	return v >= 0 && int(v) < g.NumNodes()
}

// ForEachEdge invokes fn once per edge {u, v}, with u < v. Iteration
// stops early if fn returns false.
func (g *Graph) ForEachEdge(fn func(u, v NodeID) bool) {
	n := g.NumNodes()
	for u := 0; u < n; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				if !fn(NodeID(u), v) {
					return
				}
			}
		}
	}
}

// Edges returns all undirected edges with u < v, in sorted order.
func (g *Graph) Edges() [][2]NodeID {
	out := make([][2]NodeID, 0, g.m)
	g.ForEachEdge(func(u, v NodeID) bool {
		out = append(out, [2]NodeID{u, v})
		return true
	})
	return out
}

// String returns a short human-readable summary, e.g. "graph(n=5, m=4)".
func (g *Graph) String() string {
	return fmt.Sprintf("graph(n=%d, m=%d)", g.NumNodes(), g.NumEdges())
}
