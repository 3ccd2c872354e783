package core

import (
	"context"
	"errors"
	"math/rand/v2"
	"testing"
	"time"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/vicinity"
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
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opts := DefaultOptions(2)
	opts.SampleSize = 100
	opts.Ctx = ctx
	_, err := Test(p, opts)
	if err == nil {
		t.Fatal("pre-canceled Test returned no error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want errors.Is(ErrCanceled)", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want the context cause wrapped", err)
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

// The importance and rejection draw loops honor the deadline: with a
// sample size far past the 2000-node population they would run up to
// 50·n draws, but a 50 ms deadline stops them within a second.
func TestSamplerDrawLoopHonorsDeadline(t *testing.T) {
	g := graphgen.PlantedPartition(graphgen.PlantedPartitionConfig{
		Communities: 4, Size: 500, DegreeIn: 6, DegreeOut: 0.5,
	}, rand.New(rand.NewPCG(1, 0xdb19)))
	occ := func(lo int) *graph.NodeSet {
		ids := make([]graph.NodeID, 20)
		for i := range ids {
			ids[i] = graph.NodeID(lo + 5*i)
		}
		return graph.NewNodeSet(g.NumNodes(), ids)
	}
	p := MustNewProblem(g, occ(0), occ(1000))
	idx, err := vicinity.Build(g, 1, vicinity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Sampler{&ImportanceSampler{Index: idx}, &RejectionSampler{Index: idx}} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		opts := DefaultOptions(1)
		opts.SampleSize = 1_000_000
		opts.Sampler = s
		opts.Ctx = ctx
		start := time.Now()
		_, err := Test(p, opts)
		elapsed := time.Since(start)
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: err = %v, want ErrCanceled wrapping DeadlineExceeded", s.Name(), err)
		}
		if elapsed > time.Second {
			t.Fatalf("%s: canceled after %v, want within 1s of a 50ms deadline", s.Name(), elapsed)
		}
	}
}

// nthCheckCtx wraps a canceled context but hides that until the n-th
// call to Done: earlier calls return a nil channel, which never fires.
// It cancels a density pass at an exact, scheduler-free chunk boundary.
type nthCheckCtx struct {
	context.Context
	checks, n int
}

func (c *nthCheckCtx) Done() <-chan struct{} {
	c.checks++
	if c.checks < c.n {
		return nil
	}
	return c.Context.Done()
}

// EvalAllCtx checks its context before every chunk: a context that
// fires at its k-th check stops the pass after k−1 chunks, with the
// cause wrapped in ErrCanceled. A pass that ends before the k-th check
// runs to completion.
func TestEvalAllCtxCancelMidPhase(t *testing.T) {
	p := bigProblem(t)
	rs := allNodes(500) // 8 chunks
	chunks := (len(rs) + densityChunk - 1) / densityChunk
	errStop := errors.New("caller went away")
	for _, k := range []int{1, 2, 5, chunks, chunks + 1} {
		parent, cancel := context.WithCancelCause(context.Background())
		cancel(errStop)
		ctx := &nthCheckCtx{Context: parent, n: k}
		ev := NewDensityEvaluator(p, 2)
		_, _, _, err := ev.EvalAllCtx(ctx, rs)
		if k > chunks {
			if err != nil || ev.BFSCount != int64(len(rs)) {
				t.Fatalf("k=%d: err = %v, BFSCount = %d; want a full pass of %d", k, err, ev.BFSCount, len(rs))
			}
			continue
		}
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, errStop) {
			t.Fatalf("k=%d: err = %v, want ErrCanceled wrapping the cause", k, err)
		}
		lo, hi := int64((k-1)*densityChunk), int64(k*densityChunk)
		if ev.BFSCount < lo || ev.BFSCount > hi {
			t.Fatalf("k=%d: BFSCount = %d, want within one chunk of %d (in [%d, %d])", k, ev.BFSCount, hi, lo, hi)
		}
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
