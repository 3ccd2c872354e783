package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"tesc/internal/screen"
)

func waitFinished(t *testing.T, js *Jobs, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		j, ok := js.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared while running", id)
		}
		v := j.Snapshot()
		if v.Status != JobRunning {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running after 10s", id)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestJobLifecycleAndFailure(t *testing.T) {
	js := NewJobs()
	ok := js.Start("g", nil, func(_ context.Context, j *Job) (*ScreenResultView, error) {
		j.setProgress(1, 2)
		j.setProgress(2, 2)
		return screenResultView(screen.Result{Tested: 2}), nil
	})
	v := waitFinished(t, js, ok.ID)
	if v.Status != JobDone || v.Done != 2 || v.Total != 2 || v.Result == nil || v.Result.Tested != 2 {
		t.Fatalf("done job snapshot = %+v", v)
	}
	if v.Finished == nil {
		t.Fatal("done job must carry a finished timestamp")
	}

	bad := js.Start("g", nil, func(_ context.Context, j *Job) (*ScreenResultView, error) {
		return nil, errors.New("kaput")
	})
	v = waitFinished(t, js, bad.ID)
	if v.Status != JobFailed || v.Error != "kaput" || v.Result != nil {
		t.Fatalf("failed job snapshot = %+v", v)
	}
}

// TestJobsPruneFinished bounds daemon memory: finished jobs beyond
// maxFinishedJobs are evicted oldest-first, running jobs never are.
func TestJobsPruneFinished(t *testing.T) {
	js := NewJobs()
	noop := func(_ context.Context, j *Job) (*ScreenResultView, error) {
		return nil, nil
	}
	var first *Job
	for i := 0; i < maxFinishedJobs+10; i++ {
		j := js.Start("g", nil, noop)
		if first == nil {
			first = j
		}
		waitFinished(t, js, j.ID)
	}
	// One more Start triggers pruning of the overflow.
	release := make(chan struct{})
	running := js.Start("g", nil, func(_ context.Context, j *Job) (*ScreenResultView, error) {
		<-release
		return nil, nil
	})
	if got := js.numJobs(); got > maxFinishedJobs+1 {
		t.Fatalf("%d jobs retained, want <= %d finished + 1 running", got, maxFinishedJobs)
	}
	if _, ok := js.Get(first.ID); ok {
		t.Fatalf("oldest finished job %s must have been pruned", first.ID)
	}
	if _, ok := js.Get(running.ID); !ok {
		t.Fatal("running job must never be pruned")
	}
	close(release)
	waitFinished(t, js, running.ID)
}

// TestPlannedJobPartialStreaming pins the incremental-result contract
// of planned jobs: the ranked set streamed mid-run is visible (and
// copied — later planner writes must not alias it) while the job runs,
// and the final result supersedes it at completion.
func TestPlannedJobPartialStreaming(t *testing.T) {
	js := NewJobs()
	release := make(chan struct{})
	streamed := make(chan *Job, 1)
	top := []screen.PairResult{{A: "x", B: "y", Tau: 0.5}}
	j := js.Start("g", nil, func(_ context.Context, j *Job) (*ScreenResultView, error) {
		j.setPartial(top)
		top[0].A = "mutated" // the planner reuses its backing array
		streamed <- j
		<-release
		return plannedResultView(screen.PlanResult{
			Pairs: []screen.PairResult{{A: "x", B: "y", Tau: 0.5, Significant: true}},
			Stats: screen.PlanStats{Candidates: 3, FullTests: 1, PrunedEarly: 2},
		}), nil
	})
	<-streamed
	v := j.Snapshot()
	if v.Status != JobRunning || len(v.Partial) != 1 {
		t.Fatalf("running planned job snapshot = %+v, want 1 partial pair", v)
	}
	if v.Partial[0].A != "x" || v.Partial[0].Tau != 0.5 {
		t.Fatalf("partial pair = %+v: the streamed slice must be copied, not aliased", v.Partial[0])
	}
	close(release)
	v = waitFinished(t, js, j.ID)
	if v.Status != JobDone || len(v.Partial) != 0 {
		t.Fatalf("done planned job still exposes a partial ranking: %+v", v)
	}
	if v.Result == nil || v.Result.Planner == nil {
		t.Fatalf("planned job result lacks planner stats: %+v", v.Result)
	}
	if v.Result.Planner.Candidates != 3 || v.Result.Planner.PrunedEarly != 2 ||
		v.Result.Tested != 1 || v.Result.Rejected != 1 {
		t.Fatalf("planner result view = %+v", v.Result)
	}
}

// TestJobProgressGaugeMonotone pins the max-fold in setProgress:
// screening workers report completion counts without a lock, so they
// can arrive out of order, and the polled gauge must never move
// backwards.
func TestJobProgressGaugeMonotone(t *testing.T) {
	js := NewJobs()
	release := make(chan struct{})
	progressCh := make(chan func(done, total int), 1)
	j := js.Start("g", nil, func(_ context.Context, j *Job) (*ScreenResultView, error) {
		progressCh <- j.setProgress
		<-release
		return nil, nil
	})
	progress := <-progressCh
	for _, done := range []int{1, 3, 2, 5, 4} { // out-of-order delivery
		progress(done, 5)
		if got := j.Snapshot().Done; got < done && got != 5 {
			t.Fatalf("gauge moved backwards: reported %d, gauge %d", done, got)
		}
	}
	if v := j.Snapshot(); v.Done != 5 || v.Total != 5 {
		t.Fatalf("gauge = %d/%d, want 5/5", v.Done, v.Total)
	}
	close(release)
}

// numJobs returns how many jobs the tracker retains.
func (js *Jobs) numJobs() int {
	js.mu.Lock()
	defer js.mu.Unlock()
	return len(js.jobs)
}
