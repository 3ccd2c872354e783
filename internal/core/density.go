package core

import (
	"context"

	"tesc/internal/graph"
)

// Density holds every per-reference-node quantity one h-hop BFS yields.
//
// A single traversal from r computes the vicinity size |V^h_r|, the two
// event occurrence counts, and the event-node count |Va∪b ∩ V^h_r| that
// the importance-sampling estimator needs for p(r) — the shared-BFS
// optimization called out in DESIGN.md: evaluating p(r) costs nothing on
// top of the density pass.
type Density struct {
	VicinitySize int // |V^h_r|, the normalizing "area" of Eq. 2
	CountA       int // |Va ∩ V^h_r|
	CountB       int // |Vb ∩ V^h_r|
	CountUnion   int // |Va∪b ∩ V^h_r|, numerator of p(r)·Nsum

	// SumA and SumB are the intensity-weighted occurrence masses; they
	// equal CountA/CountB when the problem has unit intensities.
	SumA, SumB float64
}

// SA returns s^h_a(r) = SumA / VicinitySize (Eq. 2, intensity-weighted).
func (d Density) SA() float64 { return d.SumA / float64(d.VicinitySize) }

// SB returns s^h_b(r).
func (d Density) SB() float64 { return d.SumB / float64(d.VicinitySize) }

// DensityEvaluator computes Density records over a fixed problem and
// vicinity level, reusing one BFS engine. Not safe for concurrent use.
type DensityEvaluator struct {
	p   *Problem
	h   int
	bfs *graph.BFS
	// Engines is not read: every traversal runs on the evaluator's one
	// engine.
	//
	// Deprecated: kept so that callers which still set it compile.
	Engines *graph.EnginePool
	// evaluation counters for the complexity experiments (Fig. 10a)
	BFSCount int64 // number of h-hop traversals performed
}

// NewDensityEvaluatorBFS returns an evaluator for p at level h that
// runs on a caller-supplied BFS engine (typically from a
// graph.EnginePool), so serving tiers stop allocating an O(|V|) mark
// array per query. The engine must be bound to p.G.
func NewDensityEvaluatorBFS(p *Problem, h int, bfs *graph.BFS) *DensityEvaluator {
	if bfs.Graph() != p.G {
		panic("core: BFS engine bound to a different graph")
	}
	return &DensityEvaluator{p: p, h: h, bfs: bfs}
}

// Eval runs one h-hop BFS from r and returns its Density.
//
// This is the flat fast path: the traversal (BFS.Collect) runs without
// a per-node callback, and the density accumulation is a branch-light
// scan of the visited buffer against the problem's packed label array —
// one byte load per node instead of two set probes. It is
// bit-identical to a per-node set-probe kernel over a plain queue BFS (the
// test oracle of TestFlatKernelMatchesReference), because it
// accumulates in BFS visit order and unit-intensity sums of 1.0 are
// exact in float64.
func (e *DensityEvaluator) Eval(r graph.NodeID) Density {
	e.BFSCount++
	nodes := e.bfs.Collect([]graph.NodeID{r}, e.h)
	labels := e.p.Labels()
	var d Density
	d.VicinitySize = len(nodes)
	ia, ib := e.p.IntensityA, e.p.IntensityB
	if ia == nil && ib == nil {
		var ca, cb, cu int
		for _, v := range nodes {
			l := labels[v]
			ca += int(l & 1)
			cb += int((l >> 1) & 1)
			cu += int((l >> 2) & 1)
		}
		d.CountA, d.CountB, d.CountUnion = ca, cb, cu
		d.SumA, d.SumB = float64(ca), float64(cb)
		return d
	}
	// Intensity-weighted variant: float64 accumulation order matters for
	// bit-identical sums, so add in visit order.
	for _, v := range nodes {
		l := labels[v]
		if l&LabelA != 0 {
			d.CountA++
			if ia != nil {
				d.SumA += ia[v]
			} else {
				d.SumA++
			}
		}
		if l&LabelB != 0 {
			d.CountB++
			if ib != nil {
				d.SumB += ib[v]
			} else {
				d.SumB++
			}
		}
		if l&LabelUnion != 0 {
			d.CountUnion++
		}
	}
	return d
}

// EvalAll evaluates every node in rs and returns the paired density
// vectors s^h_a and s^h_b plus the full records.
func (e *DensityEvaluator) EvalAll(rs []graph.NodeID) (sa, sb []float64, ds []Density) {
	sa, sb, ds, _ = e.EvalAllCtx(context.TODO(), rs)
	return sa, sb, ds
}

// densityChunk is the number of traversals EvalAllCtx runs between two
// cancellation checks: a check per chunk keeps the context off the hot
// path, and an abandoned test stops within one chunk.
const densityChunk = 64

// EvalAllCtx is EvalAll with cancellation, checked before every chunk
// of densityChunk traversals. On cancellation it returns the context's
// cause wrapped in ErrCanceled, and the density slices must be
// discarded. A nil ctx never cancels.
func (e *DensityEvaluator) EvalAllCtx(ctx context.Context, rs []graph.NodeID) (sa, sb []float64, ds []Density, err error) {
	ds = make([]Density, len(rs))
	sa, sb, err = e.evalAll(ctx, rs, func(i int, d Density) { ds[i] = d })
	return sa, sb, ds, err
}

// evalAll is EvalAllCtx handing each record to keep, when it is
// non-nil, instead of collecting them: a test keeps only what it reads.
func (e *DensityEvaluator) evalAll(ctx context.Context, rs []graph.NodeID, keep func(i int, d Density)) (sa, sb []float64, err error) {
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	for lo := 0; lo < len(rs); lo += densityChunk {
		if err := ctxErr(ctx); err != nil {
			return sa, sb, err
		}
		for i := lo; i < min(lo+densityChunk, len(rs)); i++ {
			d := e.Eval(rs[i])
			if keep != nil {
				keep(i, d)
			}
			sa[i] = d.SA()
			sb[i] = d.SB()
		}
	}
	return sa, sb, nil
}
