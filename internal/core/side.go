package core

import (
	"context"
	"sync"

	"tesc/internal/graph"
)

// The density pass is a join of the reference sample with the event
// occurrences over "within h hops". The graph is simple and undirected,
// so |V^h_r ∩ Va| is the number of occurrences a with d(a, r) <= h:
// one traversal from each member of Va∪b yields the same integer
// counts as one traversal from each reference node. At h = 1 both
// sides' ball sums are known before any traversal runs (a ball is the
// closed neighbourhood, deg+1, because the builder's graph has no
// self-loops or duplicate edges), so Test drives the join from the
// cheaper side.

// eventSideFree reports whether the event side can serve p at h: at
// h = 1 only, and only for unit intensities, because an
// intensity-weighted problem's float sums are accumulated in BFS visit
// order, which the event side cannot reproduce.
func eventSideFree(p *Problem, h int) bool {
	return h == 1 && p.IntensityA == nil && p.IntensityB == nil
}

// ballSize is |V^1_v|.
func ballSize(g *graph.Graph, v graph.NodeID) int { return g.Degree(v) + 1 }

// eventSideCheaper reports whether Σ_{a∈events} |V^1_a| is below
// Σ_{r∈refs} |V^1_r|.
func eventSideCheaper(g *graph.Graph, refs, events []graph.NodeID) bool {
	refSum := 0
	for _, r := range refs {
		refSum += ballSize(g, r)
	}
	eventSum := 0
	for _, a := range events {
		if eventSum += ballSize(g, a); eventSum >= refSum {
			return false
		}
	}
	return true
}

// evalEvents is evalAll at h = 1 driven from the event side: per
// member of Va∪b one traversal, the member and its adjacency row,
// bumping the A, B and union counters of every visited reference node.
// It hands keep the same Density records evalAll would, so the
// densities are bit-identical: both sides divide the same integer
// counts by the same ball sizes. It reads the members' A/B bits by
// merge-walking Va and Vb, so it never builds Problem.Labels, and it
// supports unit intensities only.
func (e *DensityEvaluator) evalEvents(ctx context.Context, rs []graph.NodeID, keep func(i int, d Density)) (sa, sb []float64, err error) {
	t := positionPool.Get().(*positions)
	t.reset(rs)
	defer func() {
		t.release()
		positionPool.Put(t)
	}()
	g := e.p.G
	va, vb := e.p.Va.Members(), e.p.Vb.Members()
	for k, u := range e.p.EventNodes() {
		if k%densityChunk == 0 {
			if err := ctxErr(ctx); err != nil {
				return nil, nil, err
			}
		}
		var inA, inB int32
		if len(va) > 0 && va[0] == u {
			inA, va = 1, va[1:]
		}
		if len(vb) > 0 && vb[0] == u {
			inB, vb = 1, vb[1:]
		}
		e.BFSCount++
		t.bump(u, inA, inB)
		for _, v := range g.Neighbors(u) {
			t.bump(v, inA, inB)
		}
	}
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	for i, r := range rs {
		c, size := t.counts[i], ballSize(g, r)
		// Density.SA and SB's expressions, without the record: building
		// it costs more than the divisions.
		sa[i] = float64(c.a) / float64(size)
		sb[i] = float64(c.b) / float64(size)
		if keep != nil {
			keep(i, Density{
				VicinitySize: size,
				CountA:       int(c.a), CountB: int(c.b), CountUnion: int(c.u),
				SumA: float64(c.a), SumB: float64(c.b),
			})
		}
	}
	return sa, sb, nil
}

// positions maps each reference node to its sample position with an
// open-addressing table (Fibonacci hashing, linear probing) and holds
// each position's occurrence counters. The table has at least
// tableLoad slots per reference node, so most probes of a node outside
// the sample end at an empty first slot. It is O(n) scratch, reused
// across tests through positionPool and left empty between them:
// release clears only the slots the call filled. No |V|-sized array is
// built per call or per pooled engine.
type positions struct {
	slots  []posSlot // node -1 marks an empty slot
	shift  uint      // a node's home slot is the top bits of its Fibonacci product
	counts []posCounts
}

const tableLoad = 8

type posSlot struct {
	node graph.NodeID
	pos  int32
}

// posCounts holds a position's counters and the slot its node fills.
type posCounts struct{ a, b, u, slot int32 }

var positionPool = sync.Pool{New: func() any { return new(positions) }}

// reset sizes the table for rs, whose nodes are distinct, inserts them
// at their positions and zeroes their counters.
func (t *positions) reset(rs []graph.NodeID) {
	bits := uint(1)
	for 1<<bits < tableLoad*len(rs) {
		bits++
	}
	size := 1 << bits
	if cap(t.slots) < size {
		t.slots = make([]posSlot, size)
		for i := range t.slots {
			t.slots[i].node = -1
		}
	}
	t.slots = t.slots[:size] // a prefix of an empty table is empty
	t.shift = 32 - bits
	t.counts = append(t.counts[:0], make([]posCounts, len(rs))...)
	mask := size - 1
	for i, r := range rs {
		j := t.home(r)
		for t.slots[j].node >= 0 {
			j = (j + 1) & mask
		}
		t.slots[j] = posSlot{r, int32(i)}
		t.counts[i].slot = int32(j)
	}
}

// release empties the slots reset filled.
func (t *positions) release() {
	for _, c := range t.counts {
		t.slots[c.slot].node = -1
	}
}

func (t *positions) home(v graph.NodeID) int {
	return int(uint32(v) * 0x9e3779b1 >> t.shift)
}

// bump adds a visit from an occurrence with A/B bits inA, inB to v's
// counters when v is a reference node.
func (t *positions) bump(v graph.NodeID, inA, inB int32) {
	mask := len(t.slots) - 1
	for j := t.home(v); ; j = (j + 1) & mask {
		s := t.slots[j]
		if s.node == v {
			c := &t.counts[s.pos]
			c.a += inA
			c.b += inB
			c.u++
			return
		}
		if s.node < 0 {
			return
		}
	}
}
