package graph

import "math/rand/v2"

// Stats summarizes structural properties of a graph. It backs the
// `tescbench -exp datasets` table (node/edge counts, degree profile) and
// the surrogate-vs-paper comparisons in DESIGN.md.
type Stats struct {
	Nodes          int
	Edges          int64
	MinDegree      int
	MaxDegree      int
	AvgDegree      float64
	Isolated       int // nodes with degree 0
	Components     int
	LargestCompPct float64 // fraction of nodes in the largest component
}

// ComputeStats scans g and returns its Stats.
func ComputeStats(g *Graph) Stats {
	n := g.NumNodes()
	s := Stats{Nodes: n, Edges: g.NumEdges()}
	if n == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	for v := 0; v < n; v++ {
		d := g.Degree(NodeID(v))
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
		if d == 0 {
			s.Isolated++
		}
	}
	s.AvgDegree = 2 * float64(g.NumEdges()) / float64(n)
	sizes := ComponentSizes(g)
	s.Components = len(sizes)
	if len(sizes) > 0 {
		s.LargestCompPct = float64(sizes[0]) / float64(n)
	}
	return s
}

// DegreeHistogram returns hist where hist[d] is the number of nodes with
// degree d, up to the maximum degree.
func DegreeHistogram(g *Graph) []int {
	maxDeg := 0
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if d := g.Degree(NodeID(v)); d > maxDeg {
			maxDeg = d
		}
	}
	hist := make([]int, maxDeg+1)
	for v := 0; v < n; v++ {
		hist[g.Degree(NodeID(v))]++
	}
	return hist
}

// EstimateDiameter lower-bounds the diameter of g's largest component by
// the double-sweep heuristic repeated rounds times: BFS from a random
// node, then BFS again from the farthest node found. Real-life graphs'
// "small world" property (§4.2 of the paper) is what makes h > 3 vicinity
// levels uninteresting; this estimator documents that property for the
// surrogate datasets.
func EstimateDiameter(g *Graph, rounds int, rng *rand.Rand) int {
	if g.NumNodes() == 0 {
		return 0
	}
	comp := LargestComponent(g)
	if len(comp) == 0 {
		return 0
	}
	b := NewBFS(g)
	best := 0
	for i := 0; i < rounds; i++ {
		start := comp[rng.IntN(len(comp))]
		vis := b.Collect([]NodeID{start}, g.NumNodes())
		// far is the first node of the deepest level.
		ends, deepest := b.LevelEnds(), 0
		if len(ends) > 1 {
			deepest = ends[len(ends)-2]
		}
		if ecc := b.Eccentricity(vis[deepest]); ecc > best {
			best = ecc
		}
	}
	return best
}

// LocalClusteringCoefficient returns the fraction of v's neighbor pairs
// that are themselves adjacent (0 for degree < 2). High clustering is
// the co-authorship-graph property that makes 1-hop density correlations
// detectable (see DESIGN.md §3).
func LocalClusteringCoefficient(g *Graph, v NodeID) float64 {
	ns := g.Neighbors(v)
	if len(ns) < 2 {
		return 0
	}
	closed := 0
	for i := 0; i < len(ns); i++ {
		for j := i + 1; j < len(ns); j++ {
			if g.HasEdge(ns[i], ns[j]) {
				closed++
			}
		}
	}
	return float64(closed) / float64(len(ns)*(len(ns)-1)/2)
}

// AvgClusteringCoefficient estimates the mean local clustering
// coefficient over a uniform sample of nodes with degree ≥ 2 (all such
// nodes when sample <= 0).
func AvgClusteringCoefficient(g *Graph, sample int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	var total float64
	count := 0
	consider := func(v NodeID) {
		if g.Degree(v) >= 2 {
			total += LocalClusteringCoefficient(g, v)
			count++
		}
	}
	if sample <= 0 || sample >= n {
		for v := 0; v < n; v++ {
			consider(NodeID(v))
		}
	} else {
		for i := 0; i < sample; i++ {
			consider(NodeID(rng.IntN(n)))
		}
	}
	if count == 0 {
		return 0
	}
	return total / float64(count)
}

// AvgVicinitySize estimates the mean |V^h_v| over a sample of nodes,
// the quantity the paper denotes "average size of node h-vicinities"
// (c_B in §4.4). sample <= 0 means all nodes.
func AvgVicinitySize(g *Graph, h, sample int, rng *rand.Rand) float64 {
	n := g.NumNodes()
	if n == 0 {
		return 0
	}
	b := NewBFS(g)
	if sample <= 0 || sample >= n {
		total := 0.0
		for v := 0; v < n; v++ {
			total += float64(b.VicinitySize(NodeID(v), h))
		}
		return total / float64(n)
	}
	total := 0.0
	for i := 0; i < sample; i++ {
		total += float64(b.VicinitySize(NodeID(rng.IntN(n)), h))
	}
	return total / float64(sample)
}
