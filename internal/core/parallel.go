package core

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"tesc/internal/graph"
)

// parallelChunk is the number of reference nodes a worker claims per
// atomic fetch-add: large enough that the shared counter is off the hot
// path, small enough that stragglers cannot leave a worker idle behind
// one slow chunk.
const parallelChunk = 64

// EvalAllParallel evaluates densities for all reference nodes using a
// pool of workers, each owning a private BFS engine. The density phase
// performs n independent h-hop traversals (the dominant cost of a test,
// §4.4), so it parallelizes embarrassingly; results are identical to the
// sequential EvalAll.
//
// Work is distributed by an atomic index counter — each worker
// fetch-adds the next chunk of rs — instead of a feeder goroutine
// pushing indexes down a channel: the counter is one uncontended atomic
// op per chunk, where the channel cost a send/receive handoff plus a
// goroutine wakeup. Worker-local traversal counts fold into BFSCount
// atomically as each worker finishes, so concurrent EvalAllParallel
// calls on one evaluator never lose counts.
//
// workers <= 0 selects GOMAXPROCS. The evaluator e itself is only used
// for its problem/level configuration; its BFSCount is advanced by the
// total number of traversals.
func (e *DensityEvaluator) EvalAllParallel(rs []graph.NodeID, workers int) (sa, sb []float64, ds []Density) {
	sa, sb, ds, _ = e.EvalAllParallelCtx(nil, rs, workers)
	return sa, sb, ds
}

// EvalAllParallelCtx is EvalAllParallel with cancellation: workers
// check ctx between chunks and stop claiming work once it is done, so
// an abandoned request stops burning traversals within one chunk per
// worker. On cancellation the wrapped cause is returned and the
// density slices must be discarded (partially filled). A nil ctx never
// cancels.
func (e *DensityEvaluator) EvalAllParallelCtx(ctx context.Context, rs []graph.NodeID, workers int) (sa, sb []float64, ds []Density, err error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(rs) {
		workers = len(rs)
	}
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	ds = make([]Density, len(rs))
	if len(rs) == 0 {
		return sa, sb, ds, nil
	}
	if workers <= 1 {
		return e.evalAllCtxInto(ctx, rs, sa, sb, ds)
	}

	// Prebuild the shared label array outside the workers: Labels uses
	// sync.Once, but materializing it here keeps the first chunk of
	// every worker off the Once fast path check.
	e.p.Labels()

	var wg sync.WaitGroup
	var next atomic.Int64
	var canceled atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bfs := e.Engines.Acquire(e.p.G)
			defer e.Engines.Put(bfs)
			local := NewDensityEvaluatorBFS(e.p, e.h, bfs)
			for {
				if ctxErr(ctx) != nil {
					canceled.Store(true)
					break
				}
				lo := int(next.Add(parallelChunk)) - parallelChunk
				if lo >= len(rs) {
					break
				}
				hi := lo + parallelChunk
				if hi > len(rs) {
					hi = len(rs)
				}
				local.evalInto(rs[lo:hi], sa[lo:hi], sb[lo:hi], ds[lo:hi])
			}
			atomic.AddInt64(&e.BFSCount, local.BFSCount)
		}()
	}
	wg.Wait()
	if canceled.Load() {
		return sa, sb, ds, ctxErr(ctx)
	}
	return sa, sb, ds, nil
}

// EvalAllCtx is the sequential density pass with cancellation checked
// every parallelChunk traversals — the same granularity the parallel
// workers use, so a canceled sequential test stops just as promptly.
// On cancellation the density slices must be discarded; a nil ctx
// never cancels.
func (e *DensityEvaluator) EvalAllCtx(ctx context.Context, rs []graph.NodeID) (sa, sb []float64, ds []Density, err error) {
	sa = make([]float64, len(rs))
	sb = make([]float64, len(rs))
	ds = make([]Density, len(rs))
	return e.evalAllCtxInto(ctx, rs, sa, sb, ds)
}

func (e *DensityEvaluator) evalAllCtxInto(ctx context.Context, rs []graph.NodeID, sa, sb []float64, ds []Density) ([]float64, []float64, []Density, error) {
	for lo := 0; lo < len(rs); lo += parallelChunk {
		if err := ctxErr(ctx); err != nil {
			return sa, sb, ds, err
		}
		hi := lo + parallelChunk
		if hi > len(rs) {
			hi = len(rs)
		}
		e.evalInto(rs[lo:hi], sa[lo:hi], sb[lo:hi], ds[lo:hi])
	}
	return sa, sb, ds, nil
}
