package graphgen

import (
	"math/rand/v2"

	"tesc/internal/graph"
)

// RemoveRandomEdges returns a copy of g with count uniformly chosen edges
// removed (without replacement). If count >= NumEdges the empty-edge
// graph on the same node set is returned. This implements the
// edge-removal half of the paper's graph-density experiment (Figure 8(a)):
// removing edges stretches distances and so breaks planted positive
// correlations.
func RemoveRandomEdges(g *graph.Graph, count int64, rng *rand.Rand) *graph.Graph {
	edges := g.Edges()
	if count >= int64(len(edges)) {
		return graph.NewBuilder(g.NumNodes()).MustBuild()
	}
	// Partial Fisher-Yates: move `count` random edges to the tail, keep
	// the head.
	nKeep := int64(len(edges)) - count
	for i := int64(len(edges)) - 1; i >= nKeep; i-- {
		j := rng.Int64N(i + 1)
		edges[i], edges[j] = edges[j], edges[i]
	}
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range edges[:nKeep] {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// RemoveOrSame is RemoveRandomEdges that returns g itself when count is
// zero, sparing the copy at the unmutated baseline point of Figure 8.
func RemoveOrSame(g *graph.Graph, count int64, rng *rand.Rand) *graph.Graph {
	if count <= 0 {
		return g
	}
	return RemoveRandomEdges(g, count, rng)
}

// AddOrSame is AddRandomEdges that returns g itself when count is zero.
func AddOrSame(g *graph.Graph, count int64, rng *rand.Rand) *graph.Graph {
	if count <= 0 {
		return g
	}
	return AddRandomEdges(g, count, rng)
}

// FlipStream generates a reproducible stream of valid edge flips over
// an evolving graph: each Next is an insertion of a currently absent
// edge or a deletion of a currently present one, chosen with the
// configured bias, against the state reached by all earlier flips. It
// is the workload generator of the dynamic-graph subsystem — the
// differential tests and benchmarks drive graph.Delta and
// vicinity.Index.ApplyDeltaDirty with it, seeded so every run replays
// exactly.
type FlipStream struct {
	n       int
	rng     *rand.Rand
	insBias float64
	present map[uint64]int // edge key → position in edges
	edges   []uint64       // current edge set, for uniform deletion draws
}

// NewFlipStream returns a stream over g's current edge set. insertBias
// is the probability a flip is an insertion (0.5 keeps the edge count
// drifting around its start); deletions draw uniformly from the current
// edges, insertions uniformly from the absent pairs (by rejection).
func NewFlipStream(g *graph.Graph, insertBias float64, rng *rand.Rand) *FlipStream {
	s := &FlipStream{
		n:       g.NumNodes(),
		rng:     rng,
		insBias: insertBias,
		present: make(map[uint64]int, g.NumEdges()),
	}
	g.ForEachEdge(func(u, v graph.NodeID) bool {
		s.push(s.key(u, v))
		return true
	})
	return s
}

func (s *FlipStream) key(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (s *FlipStream) push(k uint64) {
	s.present[k] = len(s.edges)
	s.edges = append(s.edges, k)
}

func (s *FlipStream) drop(k uint64) {
	i := s.present[k]
	last := len(s.edges) - 1
	s.edges[i] = s.edges[last]
	s.present[s.edges[i]] = i
	s.edges = s.edges[:last]
	delete(s.present, k)
}

// Next returns the next flip. Insertions are drawn by rejection, so the
// graph must stay clear of complete; deletions require at least one
// edge (an empty graph forces an insertion, a complete one a deletion).
func (s *FlipStream) Next() graph.EdgeChange {
	insert := s.rng.Float64() < s.insBias
	if len(s.edges) == 0 {
		insert = true
	}
	if insert {
		for {
			u := graph.NodeID(s.rng.IntN(s.n))
			v := graph.NodeID(s.rng.IntN(s.n))
			if u == v {
				continue
			}
			k := s.key(u, v)
			if _, ok := s.present[k]; ok {
				continue
			}
			s.push(k)
			return graph.EdgeChange{U: u, V: v, Insert: true}
		}
	}
	k := s.edges[s.rng.IntN(len(s.edges))]
	s.drop(k)
	return graph.EdgeChange{U: graph.NodeID(k >> 32), V: graph.NodeID(uint32(k)), Insert: false}
}

// Take returns the next count flips as a batch.
func (s *FlipStream) Take(count int) []graph.EdgeChange {
	out := make([]graph.EdgeChange, count)
	for i := range out {
		out[i] = s.Next()
	}
	return out
}

// AddRandomEdges returns a copy of g with count new uniformly chosen
// edges added (duplicates of existing edges are rejected and retried, so
// exactly count new edges appear unless the graph saturates). This is the
// edge-addition half of Figure 8(b): adding edges shrinks distances and
// so breaks planted negative correlations.
func AddRandomEdges(g *graph.Graph, count int64, rng *rand.Rand) *graph.Graph {
	n := g.NumNodes()
	maxNew := int64(n)*int64(n-1)/2 - g.NumEdges()
	if count > maxNew {
		count = maxNew
	}
	b := graph.NewBuilder(n)
	g.ForEachEdge(func(u, v graph.NodeID) bool {
		b.AddEdge(u, v)
		return true
	})
	seen := make(map[uint64]bool, count)
	var added int64
	for added < count {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] || g.HasEdge(graph.NodeID(u), graph.NodeID(v)) {
			continue
		}
		seen[key] = true
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		added++
	}
	return b.MustBuild()
}
