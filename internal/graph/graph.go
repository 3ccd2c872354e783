// Package graph provides the compact, read-optimized undirected graph
// representation used throughout the TESC reproduction, together with the
// breadth-first-search machinery (single-source h-hop BFS and the paper's
// multi-source Batch BFS, Algorithm 1) that every reference-node sampler
// and density computation is built on.
//
// Graphs are stored in compressed sparse row (CSR) form: a single offsets
// array and a single adjacency array. This keeps a 20M-node / 160M-edge
// graph (the paper's Twitter dataset) within a few GB and makes neighbor
// iteration a contiguous scan, which dominates the cost profile of h-hop
// BFS (Figure 10(a) of the paper).
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

// Graph is an immutable undirected graph in CSR form. Build one with a
// Builder. The zero value is an empty graph.
//
// Every edge {u, v} is stored twice (u→v and v→u); NumEdges reports the
// undirected count. Self-loops and duplicate edges are removed at build
// time so that vicinity sizes and densities match the paper's simple-graph
// setting.
type Graph struct {
	offsets []int64  // len = n+1; neighbors of v are adj[offsets[v]:offsets[v+1]]
	adj     []NodeID // concatenated sorted adjacency lists
	m       int64    // number of undirected edges
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int {
	if len(g.offsets) == 0 {
		return 0
	}
	return len(g.offsets) - 1
}

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int64 { return g.m }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v NodeID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
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
