// Package core implements the paper's primary contribution: the TESC
// (Two-Event Structural Correlation) statistical testing framework of
// Guan, Yan & Kaplan, "Measuring Two-Event Structural Correlations on
// Graphs", VLDB 2012.
//
// Given a graph G and the occurrence sets Va, Vb of two events, the
// framework
//
//  1. samples n reference nodes uniformly (or importance-weighted) from
//     V^h_{a∪b}, the h-vicinity of all event nodes (§3.2, §4);
//  2. computes for each reference node r the event densities
//     s^h_a(r) = |Va ∩ V^h_r| / |V^h_r| and s^h_b(r) via one h-hop BFS
//     (Eq. 2);
//  3. aggregates the pairwise concordance of density changes with
//     Kendall's τ (Eq. 3/4) — or the weighted estimator t̃ (Eq. 8) when
//     the sample is importance-weighted;
//  4. assesses significance through τ's asymptotic normality under the
//     null hypothesis with tie-corrected variance (Eq. 5/6/7).
//
// The three reference-node samplers of §4 — Batch BFS (Algorithm 1),
// importance sampling (Algorithm 2, plus the batched refinement of
// §5.2.2), and whole-graph sampling (Algorithm 3) — are provided as
// interchangeable Sampler implementations; rejection sampling (Procedure
// RejectSamp) is included as well for completeness and for validating the
// importance weights.
package core

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"

	"tesc/internal/graph"
)

// Problem binds a graph and the occurrence sets of the two events under
// test. Construct with NewProblem, which also forms Va∪b.
type Problem struct {
	G     *graph.Graph
	Va    *graph.NodeSet // occurrences of event a
	Vb    *graph.NodeSet // occurrences of event b
	Union *graph.NodeSet // Va∪b = Va ∪ Vb, the event nodes (§2)

	// IntensityA and IntensityB optionally weight each occurrence (§6's
	// extension: "consider event intensity on nodes, e.g. the frequency
	// by which an author used a keyword"). When non-nil they must have
	// length |V|; densities become intensity sums over the vicinity
	// divided by |V^h_r|, and Eq. 2 is the special case of unit
	// intensities. Reference-node eligibility is still governed by the
	// occurrence sets, not the intensities.
	IntensityA, IntensityB []float64

	labelsOnce sync.Once
	labels     []uint8
}

// Label bits of Problem.Labels: membership of a node in the occurrence
// sets, packed so the density kernels test all three sets with a single
// byte load instead of two set probes.
const (
	LabelA     uint8 = 1 << 0 // v ∈ Va
	LabelB     uint8 = 1 << 1 // v ∈ Vb
	LabelUnion uint8 = 1 << 2 // v ∈ Va∪b (= LabelA|LabelB, precombined)
)

// Labels returns the packed per-node occurrence-label array: labels[v]
// carries LabelA/LabelB/LabelUnion bits. It is built once on first use
// (O(|Va|+|Vb|) over an O(|V|) byte array) and shared by every evaluator
// of the problem; safe for concurrent readers.
func (p *Problem) Labels() []uint8 {
	p.labelsOnce.Do(func() {
		labels := make([]uint8, p.G.NumNodes())
		for _, v := range p.Va.Members() {
			labels[v] |= LabelA | LabelUnion
		}
		for _, v := range p.Vb.Members() {
			labels[v] |= LabelB | LabelUnion
		}
		p.labels = labels
	})
	return p.labels
}

// SetIntensities attaches per-node intensities to the problem. Every
// node in Va (resp. Vb) should carry a positive intensity; nodes outside
// the occurrence set must have intensity 0, and a NaN, infinite or
// negative intensity is rejected anywhere.
func (p *Problem) SetIntensities(ia, ib []float64) error {
	n := p.G.NumNodes()
	if (ia != nil && len(ia) != n) || (ib != nil && len(ib) != n) {
		return fmt.Errorf("tesc: intensity vectors must have length %d", n)
	}
	if err := checkIntensities("A", ia, p.Va); err != nil {
		return err
	}
	if err := checkIntensities("B", ib, p.Vb); err != nil {
		return err
	}
	p.IntensityA, p.IntensityB = ia, ib
	return nil
}

// checkIntensities validates one intensity vector against its
// occurrence set in a single walk over the nodes and the set's sorted
// members.
func checkIntensities(event string, w []float64, set *graph.NodeSet) error {
	members := set.Members()
	for v, x := range w {
		in := len(members) > 0 && members[0] == graph.NodeID(v)
		if in {
			members = members[1:]
		}
		switch {
		case math.IsNaN(x) || math.IsInf(x, 0) || x < 0:
			return fmt.Errorf("tesc: intensity %s on node %d is %g, want a finite non-negative value", event, v, x)
		case x != 0 && !in:
			return fmt.Errorf("tesc: intensity %s on node %d outside V%s", event, v, strings.ToLower(event))
		}
	}
	return nil
}

// Errors returned by problem construction and testing.
var (
	// ErrNoEventNodes means both occurrence sets are empty, so the
	// reference population V^h_{a∪b} is empty and TESC is undefined.
	ErrNoEventNodes = errors.New("tesc: no event occurrences; reference population is empty")
	// ErrTooFewReferences means fewer than two reference nodes could be
	// produced, so no pair exists to assess concordance on.
	ErrTooFewReferences = errors.New("tesc: fewer than two reference nodes available")
)

// NewProblem validates the inputs and precomputes Va∪b. The occurrence
// sets must share the graph's node universe.
func NewProblem(g *graph.Graph, va, vb *graph.NodeSet) (*Problem, error) {
	if va.Universe() != g.NumNodes() || vb.Universe() != g.NumNodes() {
		return nil, fmt.Errorf("tesc: occurrence set universe (%d, %d) does not match graph size %d",
			va.Universe(), vb.Universe(), g.NumNodes())
	}
	if va.Len() == 0 && vb.Len() == 0 {
		return nil, ErrNoEventNodes
	}
	return &Problem{G: g, Va: va, Vb: vb, Union: va.Union(vb)}, nil
}

// MustNewProblem is NewProblem that panics on error, for tests and
// simulators whose inputs are valid by construction.
func MustNewProblem(g *graph.Graph, va, vb *graph.NodeSet) *Problem {
	p, err := NewProblem(g, va, vb)
	if err != nil {
		panic(err)
	}
	return p
}

// EventNodes returns Va∪b as a sorted slice (aliases internal storage).
func (p *Problem) EventNodes() []graph.NodeID { return p.Union.Members() }
