package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

func bigProblem(t *testing.T) *Problem {
	t.Helper()
	rng := rand.New(rand.NewPCG(17, 1))
	g := graphgen.ErdosRenyi(500, 1500, rng)
	occ := func(lo, n int) *graph.NodeSet {
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(lo + i)
		}
		return graph.NewNodeSet(500, ids)
	}
	return MustNewProblem(g, occ(0, 20), occ(100, 20))
}

func allNodes(n int) []graph.NodeID {
	rs := make([]graph.NodeID, n)
	for i := range rs {
		rs[i] = graph.NodeID(i)
	}
	return rs
}

// A test whose context is dead before it starts reports ErrCanceled
// with the context's cause wrapped, and does no density work.
func TestTestCanceledBeforeStart(t *testing.T) {
	p := bigProblem(t)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		opts := DefaultOptions(2)
		opts.SampleSize = 100
		opts.Workers = workers
		opts.Ctx = ctx
		_, err := Test(p, opts)
		if err == nil {
			t.Fatalf("workers=%d: pre-canceled Test returned no error", workers)
		}
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want errors.Is(ErrCanceled)", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want the context cause wrapped", workers, err)
		}
	}
}

// An expired deadline surfaces as DeadlineExceeded through the same
// wrap, so callers can map it to a timeout rather than an abort.
func TestTestDeadlineExceeded(t *testing.T) {
	p := bigProblem(t)
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	opts := DefaultOptions(2)
	opts.SampleSize = 100
	opts.Ctx = ctx
	_, err := Test(p, opts)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
}

// EvalAllParallelCtx: a cancel mid-phase stops the workers early and
// reports the cancellation; a nil context runs to completion and
// matches the sequential evaluator bit-for-bit.
func TestEvalAllParallelCtx(t *testing.T) {
	p := bigProblem(t)
	rs := allNodes(500)

	seq := NewDensityEvaluator(p, 2)
	wantSA, wantSB, wantDS := seq.EvalAll(rs)

	par := NewDensityEvaluator(p, 2)
	gotSA, gotSB, gotDS, err := par.EvalAllParallelCtx(nil, rs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if gotSA[i] != wantSA[i] || gotSB[i] != wantSB[i] || gotDS[i] != wantDS[i] {
			t.Fatalf("node %d: parallel (%g,%g) != sequential (%g,%g)", i, gotSA[i], gotSB[i], wantSA[i], wantSB[i])
		}
	}
	if par.BFSCount != seq.BFSCount {
		t.Fatalf("parallel BFSCount = %d, sequential %d", par.BFSCount, seq.BFSCount)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ev := NewDensityEvaluator(p, 2)
	_, _, _, err = ev.EvalAllParallelCtx(ctx, rs, 4)
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled parallel eval: err = %v, want errors.Is(context.Canceled)", err)
	}
	// The workers bailed at a chunk boundary: far fewer traversals than
	// the full 500-node phase.
	if ev.BFSCount >= int64(len(rs)) {
		t.Fatalf("canceled eval still ran all %d traversals", ev.BFSCount)
	}
}

// The sequential ctx-checked path matches the unchecked one.
func TestEvalAllCtxMatchesEvalAll(t *testing.T) {
	p := bigProblem(t)
	rs := allNodes(500)

	seq := NewDensityEvaluator(p, 2)
	wantSA, wantSB, wantDS := seq.EvalAll(rs)

	chk := NewDensityEvaluator(p, 2)
	gotSA, gotSB, gotDS, err := chk.EvalAllCtx(context.Background(), rs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rs {
		if gotSA[i] != wantSA[i] || gotSB[i] != wantSB[i] || gotDS[i] != wantDS[i] {
			t.Fatalf("node %d: ctx path diverged from EvalAll", i)
		}
	}
}
