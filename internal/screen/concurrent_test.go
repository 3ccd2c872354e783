package screen

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"tesc/internal/stats"
)

// checkAccounting asserts a sweep's own density accounting: every
// evaluation is either a memo hit or a traversal, counted once.
func checkAccounting(t *testing.T, label string, st PlanStats) {
	t.Helper()
	if st.MemoHits+st.BFSRuns != st.DensityEvals {
		t.Errorf("%s: memo hits %d + BFS runs %d != density evals %d",
			label, st.MemoHits, st.BFSRuns, st.DensityEvals)
	}
}

// TestSharedMemoConcurrentSweepAccounting runs a second sweep on a
// shared memo entirely inside the first one's lifetime: the first
// sweep parks in its first Progress callback until the second has
// finished. Each must report only its own hits — a memo-wide counter
// would charge the second sweep's hits to the first. Free-running
// concurrent pairs then check the same invariant under real
// interleavings (run with -race).
func TestSharedMemoConcurrentSweepAccounting(t *testing.T) {
	g, store := memoFixture(t, 5, 25, 3)
	memo, err := NewSharedMemo(g.NumNodes(), store.Names())
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllPairs(store, 1)
	base := PlanConfig{Config: Config{H: 2, SampleSize: 150, Memo: memo}, K: len(pairs)}

	outer, inner := base, base
	outer.Seed, outer.Workers = 1, 1
	inner.Seed, inner.Workers = 2, 2
	started, innerDone := make(chan struct{}), make(chan struct{})
	var once sync.Once
	outer.Progress = func(done, total int) {
		once.Do(func() {
			close(started)
			<-innerDone
		})
	}
	var outerRes, innerRes PlanResult
	var outerErr, innerErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		outerRes, outerErr = Plan(g, store, pairs, outer)
	}()
	go func() {
		defer wg.Done()
		defer close(innerDone)
		<-started
		innerRes, innerErr = Plan(g, store, pairs, inner)
	}()
	wg.Wait()
	if outerErr != nil || innerErr != nil {
		t.Fatal(outerErr, innerErr)
	}
	if innerRes.Stats.MemoHits == 0 {
		t.Fatal("the inner sweep had no memo hits; the test proves nothing")
	}
	checkAccounting(t, "outer sweep", outerRes.Stats)
	checkAccounting(t, "inner sweep", innerRes.Stats)

	for round := range 4 {
		memo.Reset()
		var res [2]PlanResult
		var errs [2]error
		for i := range res {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := base
				cfg.Seed, cfg.Workers = uint64(10*round+i), 2
				res[i], errs[i] = Plan(g, store, pairs, cfg)
			}()
		}
		wg.Wait()
		for i := range res {
			if errs[i] != nil {
				t.Fatal(errs[i])
			}
			checkAccounting(t, "free-running sweep", res[i].Stats)
		}
	}
}

// TestSharedMemoConcurrentPlanAndRun pins the concurrency contract:
// two planned and two exhaustive sweeps with different seeds share one
// memo at the same time, round after round, and each is bit-identical
// — pairs, τ, z, p and skip reasons — to the same sweep on a memo of
// its own. From the second round on the memo is settled, so both
// exhaustive sweeps want a rank table at start while the plan
// publishes new densities. The positive-tail threshold plan reads and
// fills the memo's event vicinity sizes from both its workers.
func TestSharedMemoConcurrentPlanAndRun(t *testing.T) {
	g, store := fixture(t)
	shared, err := NewSharedMemo(g.NumNodes(), store.Names())
	if err != nil {
		t.Fatal(err)
	}
	pairs := AllPairs(store, 1)
	fresh := func() *SharedMemo {
		m, err := NewSharedMemo(g.NumNodes(), store.Names())
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	for round := range 4 {
		runCfgs := []Config{
			{H: 2, SampleSize: 120, Workers: 2, MinOccurrences: 5, Seed: uint64(100 + round)},
			{H: 2, SampleSize: 120, Workers: 2, MinOccurrences: 5, Seed: uint64(300 + round)},
		}
		planCfgs := []PlanConfig{{Config: runCfgs[0], K: 4}, {Config: runCfgs[1], Theta: 0.05}}
		planCfgs[0].Seed = uint64(200 + round)
		planCfgs[1].Seed = uint64(400 + round)
		planCfgs[1].Alternative = stats.Greater

		got := make([]Result, len(runCfgs))
		runErrs := make([]error, len(runCfgs))
		gotPlans := make([]PlanResult, len(planCfgs))
		planErrs := make([]error, len(planCfgs))
		var wg sync.WaitGroup
		for i, runCfg := range runCfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := runCfg
				cfg.Memo = shared
				got[i], runErrs[i] = Run(g, store, pairs, cfg)
			}()
		}
		for i, planCfg := range planCfgs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				cfg := planCfg
				cfg.Memo = shared
				gotPlans[i], planErrs[i] = Plan(g, store, pairs, cfg)
			}()
		}
		wg.Wait()
		if err := errors.Join(append(runErrs, planErrs...)...); err != nil {
			t.Fatal(err)
		}

		for i, runCfg := range runCfgs {
			runCfg.Memo = fresh()
			want, err := Run(g, store, pairs, runCfg)
			if err != nil {
				t.Fatal(err)
			}
			if want.Skipped == 0 {
				t.Fatal("no pair skipped; the fixture no longer covers skip reasons")
			}
			if !reflect.DeepEqual(got[i].Pairs, want.Pairs) || got[i].Tested != want.Tested ||
				got[i].Skipped != want.Skipped || got[i].Rejected != want.Rejected {
				t.Fatalf("round %d: Run on the shared memo diverged from a fresh memo\n got %+v\nwant %+v", round, got[i], want)
			}
		}
		for i, planCfg := range planCfgs {
			planCfg.Memo = fresh()
			wantPlan, err := Plan(g, store, pairs, planCfg)
			if err != nil {
				t.Fatal(err)
			}
			comparePlanned(t, gotPlans[i].Pairs, wantPlan.Pairs, "Plan on the shared memo")
			if gotPlans[i].Stats.Skipped != wantPlan.Stats.Skipped {
				t.Fatalf("round %d plan %d: skipped %d, fresh %d", round, i, gotPlans[i].Stats.Skipped, wantPlan.Stats.Skipped)
			}
		}
	}
	if shared.rankPairs.Load() == 0 {
		t.Fatal("no exhaustive sweep tested a pair on rank keys; the test proves nothing")
	}
}
