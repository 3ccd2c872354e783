package graph

import "fmt"

// FromCSR reconstructs a graph directly from flat CSR arrays (neighbors
// of v are adj[offsets[v]:offsets[v+1]]), taking ownership of the
// slices: the graph's pages alias them. The snapshot subsystem decodes
// graphs through it, without re-running the Builder's
// symmetrize/sort/dedup pass. It enforces every invariant the Builder
// establishes — this is the trust boundary for graphs deserialized from
// disk, so nothing is assumed:
//
//   - offsets has length n+1 with offsets[0] == 0, is non-decreasing,
//     and ends at len(adj);
//   - every adjacency row is strictly increasing (sorted, no
//     duplicates — HasEdge binary-searches rows), in range, and free of
//     self-loops;
//   - the graph is symmetric: every arc u→v has its mirror v→u.
//
// Validation is O(n + m): symmetry is checked by the two-pointer sweep
// below, not per-arc binary search, because this sits on the daemon's
// warm-start path. A violated invariant returns an error; nothing
// panics downstream.
func FromCSR(offsets []int64, adj []NodeID) (*Graph, error) {
	if len(offsets) < 1 {
		return nil, fmt.Errorf("graph: CSR offsets empty (need n+1 entries)")
	}
	n := len(offsets) - 1
	if n > MaxNodes {
		return nil, fmt.Errorf("graph: CSR node count %d exceeds max %d", n, MaxNodes)
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("graph: CSR offsets[0] = %d, want 0", offsets[0])
	}
	for v := 0; v < n; v++ {
		if offsets[v+1] < offsets[v] {
			return nil, fmt.Errorf("graph: CSR offsets decrease at node %d (%d -> %d)", v, offsets[v], offsets[v+1])
		}
	}
	if offsets[n] != int64(len(adj)) {
		return nil, fmt.Errorf("graph: CSR offsets end at %d, adjacency has %d entries", offsets[n], len(adj))
	}
	if len(adj)%2 != 0 {
		return nil, fmt.Errorf("graph: undirected CSR has odd arc count %d", len(adj))
	}
	// Single sweep, u ascending: validate u's row (sorted, in range, no
	// self-loop) and run the two-pointer mirror check — each arc (u, v)
	// with v > u must consume the next entry of v's smaller-neighbor
	// prefix, which a symmetric sorted CSR yields in exactly ascending-u
	// order, so every mirror is one cursor comparison instead of a
	// binary search. The checks for u's own row and for the rows the
	// cursors touch commute: the graph is accepted only if every check
	// over the whole sweep passes.
	cursor := make([]int64, n)
	for u := 0; u < n; u++ {
		row := adj[offsets[u]:offsets[u+1]]
		prev := NodeID(-1)
		for _, v := range row {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("graph: CSR neighbor %d of node %d outside [0,%d)", v, u, n)
			}
			if v == NodeID(u) {
				return nil, fmt.Errorf("graph: CSR self-loop at node %d", u)
			}
			if v <= prev {
				return nil, fmt.Errorf("graph: CSR row of node %d not strictly increasing (%d after %d)", u, v, prev)
			}
			prev = v
			if v > NodeID(u) {
				k := cursor[v]
				if k >= offsets[v+1]-offsets[v] || adj[offsets[v]+k] != NodeID(u) {
					return nil, fmt.Errorf("graph: undirected CSR not symmetric: arc %d->%d has no mirror", u, v)
				}
				cursor[v] = k + 1
			}
		}
	}
	// Every smaller-neighbor prefix must be fully consumed: a leftover
	// entry w < v would be an arc (v, w) whose mirror (w, v) never
	// appeared in the sweep.
	for v := 0; v < n; v++ {
		if k := cursor[v]; offsets[v]+k < offsets[v+1] && adj[offsets[v]+k] < NodeID(v) {
			return nil, fmt.Errorf("graph: undirected CSR not symmetric: arc %d->%d has no mirror", v, adj[offsets[v]+k])
		}
	}
	return paged(offsets, adj), nil
}
