package core

import (
	"fmt"

	"tesc/internal/graph"
)

// EventMembership is an immutable node → event-index adjacency in CSR
// form over a vocabulary of K events: events of node v are
// events[offsets[v]:offsets[v+1]], each an index into the vocabulary.
// It is the shared, read-only half of MultiEvaluator; build it once per
// (graph snapshot, event set) and share it across worker evaluators.
type EventMembership struct {
	n       int
	k       int
	offsets []int32
	events  []int32
}

// NewEventMembership builds the node → event adjacency from K
// occurrence sets over a universe of n nodes. Index k of sets names
// event k.
func NewEventMembership(n int, sets []*graph.NodeSet) (*EventMembership, error) {
	m := &EventMembership{n: n, k: len(sets)}
	total := 0
	for k, s := range sets {
		if s.Universe() != n {
			return nil, fmt.Errorf("core: event %d universe %d does not match graph size %d", k, s.Universe(), n)
		}
		total += s.Len()
	}
	deg := make([]int32, n+1)
	for _, s := range sets {
		for _, v := range s.Members() {
			deg[v+1]++
		}
	}
	m.offsets = make([]int32, n+1)
	for v := 0; v < n; v++ {
		m.offsets[v+1] = m.offsets[v] + deg[v+1]
	}
	m.events = make([]int32, total)
	cursor := make([]int32, n)
	copy(cursor, m.offsets[:n])
	for k, s := range sets {
		for _, v := range s.Members() {
			m.events[cursor[v]] = int32(k)
			cursor[v]++
		}
	}
	return m, nil
}

// NumEvents returns K, the vocabulary size.
func (m *EventMembership) NumEvents() int { return m.k }

// MultiEvaluator computes, in ONE h-hop BFS from a reference node, the
// occurrence counts |V_k ∩ V^h_r| of every event k in a vocabulary —
// the cross-pair generalization of DensityEvaluator.Eval. A screening
// sweep over K events tests K(K−1)/2 pairs, and without this the same
// reference node is re-traversed once per pair it is sampled for; with
// it, one traversal yields the count vector every pair's densities are
// O(1) array math over (screen's density memo stores exactly these
// vectors).
//
// Not safe for concurrent use; create one per worker, sharing the
// EventMembership.
type MultiEvaluator struct {
	g   *graph.Graph
	mem *EventMembership
	h   int
	bfs *graph.BFS
	// BFSCount counts traversals performed, mirroring
	// DensityEvaluator.BFSCount.
	BFSCount int64
}

// NewMultiEvaluator returns an evaluator for the membership's event
// vocabulary on g at level h. bfs supplies the traversal engine
// (typically from a graph.EnginePool); nil allocates a private one.
func NewMultiEvaluator(g *graph.Graph, mem *EventMembership, h int, bfs *graph.BFS) (*MultiEvaluator, error) {
	if mem.n != g.NumNodes() {
		return nil, fmt.Errorf("core: event membership universe %d does not match graph size %d", mem.n, g.NumNodes())
	}
	if bfs == nil {
		bfs = graph.NewBFS(g)
	} else if bfs.Graph() != g {
		return nil, fmt.Errorf("core: BFS engine bound to a different graph")
	}
	return &MultiEvaluator{g: g, mem: mem, h: h, bfs: bfs}, nil
}

// Eval runs one h-hop BFS from r, accumulates the per-event occurrence
// counts into counts (len K, zeroed by Eval), and returns |V^h_r|.
// Counts are exact integers, so densities derived as
// float64(counts[k])/float64(size) are bit-identical to the
// unit-intensity DensityEvaluator path.
func (m *MultiEvaluator) Eval(r graph.NodeID, counts []int32) int {
	if len(counts) != m.mem.k {
		panic(fmt.Sprintf("core: counts length %d, want %d", len(counts), m.mem.k))
	}
	for i := range counts {
		counts[i] = 0
	}
	m.BFSCount++
	nodes := m.bfs.Collect([]graph.NodeID{r}, m.h)
	offsets, events := m.mem.offsets, m.mem.events
	for _, v := range nodes {
		for _, k := range events[offsets[v]:offsets[v+1]] {
			counts[k]++
		}
	}
	return len(nodes)
}
