package screen

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"tesc/internal/stats"
)

// A sweep whose context is dead before it starts does no work and
// reports the cancellation, matchable with errors.Is.
func TestRunCanceledBeforeStart(t *testing.T) {
	g, store := fixture(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := Run(g, store, AllPairs(store, 5), Config{
		H: 2, SampleSize: 100, Alternative: stats.Greater, Seed: 7, Ctx: ctx,
	})
	if err == nil {
		t.Fatal("pre-canceled Run returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
	if res.Tested != 0 || len(res.Pairs) != 0 {
		t.Fatalf("canceled Run leaked partial results: %+v", res)
	}
}

// Cancelling mid-sweep from the progress callback: the workers observe
// the dead context at their next per-pair check and Run reports the
// cancellation instead of a truncated result masquerading as complete.
func TestRunCanceledMidSweep(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 1)
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var seen atomic.Int64
		_, err := Run(g, store, pairs, Config{
			H: 2, SampleSize: 100, Alternative: stats.Greater, Seed: 7,
			Workers: workers,
			Ctx:     ctx,
			Progress: func(done, total int) {
				if seen.Add(1) == 2 {
					cancel() // two pairs in, abandon the sweep
				}
			},
		})
		cancel()
		if err == nil {
			t.Fatalf("workers=%d: mid-sweep cancel returned no error", workers)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want errors.Is(context.Canceled)", workers, err)
		}
		if n := seen.Load(); n >= int64(len(pairs)) {
			t.Fatalf("workers=%d: all %d pairs ran despite the cancel", workers, n)
		}
	}
}

// A cancel that lands during the very last pair must still surface as
// an error, never as a complete-looking result.
func TestRunCancelOnFinalPair(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 1)
	ctx, cancel := context.WithCancel(context.Background())
	_, err := Run(g, store, pairs, Config{
		H: 2, SampleSize: 100, Alternative: stats.Greater, Seed: 7,
		Workers: 1,
		Ctx:     ctx,
		Progress: func(done, total int) {
			if done == total {
				cancel()
			}
		},
	})
	cancel()
	if err == nil {
		t.Fatal("cancel during the final pair returned a clean result")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want errors.Is(context.Canceled)", err)
	}
}

// A pre-canceled plan does no work; a mid-plan cancel keeps the exact
// partial ranking alongside the error.
func TestPlanCanceled(t *testing.T) {
	g, store := fixture(t)
	pairs := AllPairs(store, 5)
	base := Config{H: 2, SampleSize: 200, Alternative: stats.Greater, Seed: 7, Workers: 1}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pre := base
	pre.Ctx = ctx
	res, err := Plan(g, store, pairs, PlanConfig{Config: pre, K: 3})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled Plan: err = %v, want errors.Is(context.Canceled)", err)
	}
	if len(res.Pairs) != 0 {
		t.Fatalf("pre-canceled Plan produced pairs: %+v", res.Pairs)
	}

	// Oracle: the reference sweep's raw-p results, whose per-pair
	// statistics the planner reproduces exactly (same seed, pair-keyed
	// RNG). The partial ranking may contain pairs a complete plan would
	// later displace from the top-k, so the comparison target is the
	// full result set, not the final top-k.
	oracle, _ := referenceSweep(t, g, store, pairs, base)

	ctx2, cancel2 := context.WithCancel(context.Background())
	mid := base
	mid.Ctx = ctx2
	var seen atomic.Int64
	mid.Progress = func(done, total int) {
		if seen.Add(1) == 2 {
			cancel2()
		}
	}
	part, err := Plan(g, store, pairs, PlanConfig{Config: mid, K: 3})
	cancel2()
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-plan cancel: err = %v, want errors.Is(context.Canceled)", err)
	}
	// Every pair the partial ranking carries was fully evaluated before
	// the cancel: its statistics must match the oracle's field-for-field.
	byPair := map[[2]string]PairResult{}
	for _, p := range oracle {
		if p.Skipped == "" {
			byPair[[2]string{p.A, p.B}] = p
		}
	}
	for _, p := range part.Pairs {
		want, ok := byPair[[2]string{p.A, p.B}]
		if !ok {
			t.Fatalf("partial ranking contains pair %s/%s the oracle never tested", p.A, p.B)
		}
		if p != want {
			t.Fatalf("partial pair %s/%s diverged from the oracle:\n got: %+v\nwant: %+v", p.A, p.B, p, want)
		}
	}
}
