// Package graphgen generates the synthetic graphs that stand in for the
// paper's three datasets (DBLP, Intrusion, Twitter — none of which is
// redistributable) and provides the random edge add/remove mutators used
// by the graph-density experiment (Figure 8).
//
// Generator choice per dataset is documented in DESIGN.md §3:
//
//   - DBLP co-author graph  → PlantedPartition: community structure with
//     dense intra-community and sparse inter-community edges, matching the
//     "mother communities" picture TESC relies on.
//   - Intrusion alert graph → HubGraph: a small set of very-high-degree
//     hubs (the paper reports hub degrees ≈50k and a tiny diameter).
//   - Twitter graph         → RMAT: skewed power-law degree distribution
//     at arbitrary scale for the efficiency experiments.
//
// All generators are deterministic given their *rand.Rand and never
// produce self-loops or duplicate edges (the builder enforces this).
package graphgen

import (
	"fmt"
	"math/rand/v2"

	"tesc/internal/graph"
)

// ErdosRenyi returns a G(n, m) random graph: m distinct uniform edges on
// n nodes. It panics if m exceeds the number of possible edges.
func ErdosRenyi(n int, m int64, rng *rand.Rand) *graph.Graph {
	maxEdges := int64(n) * int64(n-1) / 2
	if m > maxEdges {
		panic(fmt.Sprintf("graphgen: requested %d edges, max is %d", m, maxEdges))
	}
	b := graph.NewBuilder(n)
	seen := make(map[uint64]bool, m)
	var added int64
	for added < m {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			continue
		}
		if u > v {
			u, v = v, u
		}
		key := uint64(u)<<32 | uint64(v)
		if seen[key] {
			continue
		}
		seen[key] = true
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		added++
	}
	return b.MustBuild()
}

// BarabasiAlbert returns an n-node preferential-attachment graph where
// each new node attaches k edges to existing nodes with probability
// proportional to their current degree. The first k+1 nodes form a
// clique seed.
func BarabasiAlbert(n, k int, rng *rand.Rand) *graph.Graph {
	if k < 1 || n < k+1 {
		panic("graphgen: BarabasiAlbert requires n >= k+1, k >= 1")
	}
	b := graph.NewBuilder(n)
	// repeated-endpoint list: node v appears deg(v) times, sampling from
	// it is sampling proportional to degree.
	var ends []graph.NodeID
	for i := 0; i <= k; i++ {
		for j := i + 1; j <= k; j++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID(j))
			ends = append(ends, graph.NodeID(i), graph.NodeID(j))
		}
	}
	targets := make(map[graph.NodeID]bool, k)
	for v := k + 1; v < n; v++ {
		clear(targets)
		for len(targets) < k {
			targets[ends[rng.IntN(len(ends))]] = true
		}
		for u := range targets {
			b.AddEdge(graph.NodeID(v), u)
			ends = append(ends, graph.NodeID(v), u)
		}
	}
	return b.MustBuild()
}

// WattsStrogatz returns an n-node small-world graph: a ring lattice where
// each node connects to its k nearest neighbors on each side, with each
// edge rewired to a uniform random endpoint with probability beta.
func WattsStrogatz(n, k int, beta float64, rng *rand.Rand) *graph.Graph {
	if k < 1 || n < 2*k+1 {
		panic("graphgen: WattsStrogatz requires n >= 2k+1, k >= 1")
	}
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			u, v := i, (i+j)%n
			if rng.Float64() < beta {
				for {
					w := rng.IntN(n)
					if w != u && w != v {
						v = w
						break
					}
				}
			}
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.MustBuild()
}

// PlantedPartitionConfig parameterizes the DBLP-surrogate generator.
type PlantedPartitionConfig struct {
	Communities int     // number of communities
	Size        int     // nodes per community
	DegreeIn    float64 // expected intra-community degree per node
	DegreeOut   float64 // expected inter-community degree per node
}

// PlantedPartition generates a community graph: Communities blocks of
// Size nodes each, with expected intra-degree DegreeIn and expected
// inter-degree DegreeOut per node.
func PlantedPartition(cfg PlantedPartitionConfig, rng *rand.Rand) *graph.Graph {
	n := cfg.Communities * cfg.Size
	b := graph.NewBuilder(n)
	mIn := int64(float64(n) * cfg.DegreeIn / 2)
	mOut := int64(float64(n) * cfg.DegreeOut / 2)

	// Intra-community edges: pick a community, then two distinct members.
	for e := int64(0); e < mIn; e++ {
		c := rng.IntN(cfg.Communities)
		base := c * cfg.Size
		u := base + rng.IntN(cfg.Size)
		v := base + rng.IntN(cfg.Size)
		if u == v {
			e--
			continue
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	// Inter-community edges: two distinct communities.
	for e := int64(0); e < mOut; e++ {
		c1 := rng.IntN(cfg.Communities)
		c2 := rng.IntN(cfg.Communities)
		if c1 == c2 {
			e--
			continue
		}
		u := c1*cfg.Size + rng.IntN(cfg.Size)
		v := c2*cfg.Size + rng.IntN(cfg.Size)
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.MustBuild()
}

// CoauthorshipConfig parameterizes the clique-based DBLP surrogate.
type CoauthorshipConfig struct {
	Communities int     // research communities
	Size        int     // authors per community
	Papers      float64 // papers per author (drives edge count)
	MaxAuthors  int     // max authors per paper (clique size)
	InterFrac   float64 // fraction of papers drawing one author from another community
}

// DefaultCoauthorship mirrors the DBLP co-author graph at a configurable
// scale: papers are small author cliques drawn mostly within a
// community, giving both the community structure and the high clustering
// coefficient (~0.6) of real co-authorship networks — the property that
// makes 1-hop density correlations detectable (neighbors of co-authors
// are usually co-authors themselves). scale = 1.0 yields ≈100k nodes
// with average degree ≈ 7.4.
func DefaultCoauthorship(scale float64) CoauthorshipConfig {
	communities := int(1250 * scale)
	if communities < 2 {
		communities = 2
	}
	return CoauthorshipConfig{
		Communities: communities,
		Size:        80,
		Papers:      1.0,
		MaxAuthors:  7,
		InterFrac:   0.15,
	}
}

// NumNodes returns the node count of the configured graph.
func (cfg CoauthorshipConfig) NumNodes() int { return cfg.Communities * cfg.Size }

// Coauthorship generates the clique-based DBLP surrogate: Papers·n/2.5
// papers, each a clique of 2..MaxAuthors authors from one community
// (with probability InterFrac one author comes from a random other
// community, the cross-community collaborations).
func Coauthorship(cfg CoauthorshipConfig, rng *rand.Rand) *graph.Graph {
	n := cfg.NumNodes()
	b := graph.NewBuilder(n)
	numPapers := int(cfg.Papers * float64(n) / 2.5)
	authors := make([]graph.NodeID, 0, cfg.MaxAuthors)
	for p := 0; p < numPapers; p++ {
		c := rng.IntN(cfg.Communities)
		base := c * cfg.Size
		k := 2 + rng.IntN(cfg.MaxAuthors-1)
		authors = authors[:0]
		for len(authors) < k {
			a := graph.NodeID(base + rng.IntN(cfg.Size))
			dup := false
			for _, x := range authors {
				if x == a {
					dup = true
					break
				}
			}
			if !dup {
				authors = append(authors, a)
			}
		}
		if rng.Float64() < cfg.InterFrac && cfg.Communities > 1 {
			oc := rng.IntN(cfg.Communities)
			if oc != c {
				authors[0] = graph.NodeID(oc*cfg.Size + rng.IntN(cfg.Size))
			}
		}
		for i := 0; i < len(authors); i++ {
			for j := i + 1; j < len(authors); j++ {
				b.AddEdge(authors[i], authors[j])
			}
		}
	}
	return b.MustBuild()
}

// IntrusionConfig parameterizes the subnet-clique Intrusion surrogate.
type IntrusionConfig struct {
	Nodes      int // total nodes (hosts + hub routers)
	Hubs       int // router/gateway nodes with very high degree
	SubnetSize int // hosts per subnet (each subnet is a clique)
	// ExtraDegree adds sparse random host-host edges (cross-subnet
	// traffic); keep small so hub partitioning is the only short path
	// between subnets.
	ExtraDegree float64
}

// DefaultIntrusion mirrors the paper's Intrusion alert graph profile at a
// configurable node count: a few router hubs whose degree is a fixed
// quarter-ish fraction of the graph (paper: ≈50k on 200,858 nodes), hosts
// grouped into subnet cliques, each subnet wired to one hub. The clique
// subnets give the local density gradients that make 1-hop alert
// correlations measurable, the hubs give the tiny diameter §5.4 reports.
func DefaultIntrusion(n int) IntrusionConfig {
	return IntrusionConfig{Nodes: n, Hubs: 4, SubnetSize: 8, ExtraDegree: 0.3}
}

// Intrusion generates the subnet-clique surrogate. Nodes 0..Hubs-1 are
// the routers; the remaining nodes are partitioned into consecutive
// subnets of SubnetSize, each fully connected internally and attached to
// one router chosen per subnet.
func Intrusion(cfg IntrusionConfig, rng *rand.Rand) *graph.Graph {
	if cfg.Hubs < 1 || cfg.SubnetSize < 2 || cfg.Nodes <= cfg.Hubs+cfg.SubnetSize {
		panic("graphgen: invalid IntrusionConfig")
	}
	b := graph.NewBuilder(cfg.Nodes)
	hosts := cfg.Nodes - cfg.Hubs
	for start := 0; start < hosts; start += cfg.SubnetSize {
		end := start + cfg.SubnetSize
		if end > hosts {
			end = hosts
		}
		hub := graph.NodeID(rng.IntN(cfg.Hubs))
		for i := start; i < end; i++ {
			u := graph.NodeID(cfg.Hubs + i)
			b.AddEdge(u, hub)
			for j := i + 1; j < end; j++ {
				b.AddEdge(u, graph.NodeID(cfg.Hubs+j))
			}
		}
	}
	extra := int64(float64(cfg.Nodes) * cfg.ExtraDegree / 2)
	for e := int64(0); e < extra; e++ {
		u := cfg.Hubs + rng.IntN(hosts)
		v := cfg.Hubs + rng.IntN(hosts)
		if u == v {
			e--
			continue
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.MustBuild()
}

// SubnetMembers returns the node IDs of subnet s.
func (cfg IntrusionConfig) SubnetMembers(s int) []graph.NodeID {
	hosts := cfg.Nodes - cfg.Hubs
	start := s * cfg.SubnetSize
	end := start + cfg.SubnetSize
	if end > hosts {
		end = hosts
	}
	out := make([]graph.NodeID, 0, end-start)
	for i := start; i < end; i++ {
		out = append(out, graph.NodeID(cfg.Hubs+i))
	}
	return out
}

// NumSubnets returns the number of subnets.
func (cfg IntrusionConfig) NumSubnets() int {
	hosts := cfg.Nodes - cfg.Hubs
	return (hosts + cfg.SubnetSize - 1) / cfg.SubnetSize
}

// HubGraph generates a simpler hub-and-spoke graph: hubs high-degree
// nodes each connected to a large random subset of the remaining nodes,
// plus a sparse random background. Used where only the "few huge hubs,
// tiny diameter" trait matters.
func HubGraph(n, hubs int, hubDegree int, backgroundDegree float64, rng *rand.Rand) *graph.Graph {
	if hubs >= n {
		panic("graphgen: HubGraph requires hubs < n")
	}
	b := graph.NewBuilder(n)
	for hub := 0; hub < hubs; hub++ {
		for i := 0; i < hubDegree; i++ {
			v := hubs + rng.IntN(n-hubs)
			b.AddEdge(graph.NodeID(hub), graph.NodeID(v))
		}
	}
	mBg := int64(float64(n) * backgroundDegree / 2)
	for e := int64(0); e < mBg; e++ {
		u := rng.IntN(n)
		v := rng.IntN(n)
		if u == v {
			e--
			continue
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	return b.MustBuild()
}

// RMATConfig parameterizes the recursive-matrix generator used as the
// Twitter surrogate. Probabilities must sum to ~1.
type RMATConfig struct {
	Scale      int     // 2^Scale nodes
	EdgeFactor int     // edges = EdgeFactor * 2^Scale
	A, B, C    float64 // quadrant probabilities; D = 1-A-B-C
}

// DefaultTwitterSurrogate mirrors the Twitter dataset's average degree
// (0.16B edges over 20M nodes → edge factor 8) with the standard
// Graph500 skew parameters.
func DefaultTwitterSurrogate(scale int) RMATConfig {
	return RMATConfig{Scale: scale, EdgeFactor: 8, A: 0.57, B: 0.19, C: 0.19}
}

// RMAT generates a power-law graph via the recursive matrix model.
// Duplicate edges and self-loops are dropped by the builder, so the final
// edge count is slightly below EdgeFactor·2^Scale.
func RMAT(cfg RMATConfig, rng *rand.Rand) *graph.Graph {
	n := 1 << cfg.Scale
	m := int64(cfg.EdgeFactor) * int64(n)
	b := graph.NewBuilder(n)
	d := 1 - cfg.A - cfg.B - cfg.C
	if d < -1e-9 {
		panic("graphgen: RMAT probabilities exceed 1")
	}
	for e := int64(0); e < m; e++ {
		u, v := 0, 0
		for bit := cfg.Scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < cfg.A:
				// top-left: no bits set
			case r < cfg.A+cfg.B:
				v |= 1 << bit
			case r < cfg.A+cfg.B+cfg.C:
				u |= 1 << bit
			default:
				u |= 1 << bit
				v |= 1 << bit
			}
		}
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v))
		}
	}
	return b.MustBuild()
}
