package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"tesc/api"
	"tesc/internal/screen"
)

// waitStatus polls until the job reaches the wanted status, failing
// after a generous deadline.
func waitStatus(t *testing.T, j *Job, want JobStatus) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if v := j.Snapshot(); v.Status == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q, want %q", j.Snapshot().Status, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// Cancel aborts a running job through its context and the job lands in
// "cancelled", not "failed" — the job did nothing wrong.
func TestJobCancelLandsInCancelled(t *testing.T) {
	js := NewJobs()
	started := make(chan struct{})
	j := js.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	<-started
	j.cancel()
	waitStatus(t, j, JobCancelled)
	// Cancelling a finished job is a harmless no-op.
	j.cancel()
	waitStatus(t, j, JobCancelled)
}

// A deadline-killed job is also "cancelled": DeadlineExceeded and
// Canceled both mean somebody stopped wanting the sweep.
func TestJobDeadlineLandsInCancelled(t *testing.T) {
	js := NewJobs()
	j := js.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		return nil, context.DeadlineExceeded
	})
	waitStatus(t, j, JobCancelled)
}

// A cancelled planned job keeps its partial ranking visible: the pairs
// it finished are exact, and they are all the client gets.
func TestPlannedJobCancelKeepsPartial(t *testing.T) {
	js := NewJobs()
	partial := []screen.PairResult{{A: "x", B: "y", Tau: 0.4}}
	j := js.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		<-ctx.Done()
		// The planner returns the ranking-so-far alongside the error.
		return plannedResultView(screen.PlanResult{Pairs: partial}), ctx.Err()
	})
	j.cancel()
	waitStatus(t, j, JobCancelled)
	v := j.Snapshot()
	if len(v.Partial) != 1 || v.Partial[0].A != "x" {
		t.Fatalf("cancelled planned job lost its partial ranking: %+v", v)
	}
	if v.Result != nil {
		t.Fatalf("cancelled job published a final result: %+v", v.Result)
	}
}

// The job's admission slot is returned exactly once on every exit path.
func TestJobReleasesSlotOnCancel(t *testing.T) {
	js := NewJobs()
	a, err := newAdmission(AdmissionConfig{MaxInflightBG: 1})
	if err != nil {
		t.Fatal(err)
	}
	release, ok := a.acquireJobSlot()
	if !ok {
		t.Fatal("no slot on an idle gate")
	}
	j := js.Start("g", release, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if _, ok := a.acquireJobSlot(); ok {
		t.Fatal("slot free while the job holds it")
	}
	j.cancel()
	waitStatus(t, j, JobCancelled)
	deadline := time.Now().Add(time.Second)
	for {
		if _, ok := a.acquireJobSlot(); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never returned its admission slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// CancelAll + Wait is the drain path: every running job lands in
// "cancelled" and every goroutine exits; jobs born afterwards are
// cancelled immediately.
func TestJobsCancelAllAndWait(t *testing.T) {
	js := NewJobs()
	var jobs []*Job
	for i := 0; i < 4; i++ {
		jobs = append(jobs, js.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
			<-ctx.Done()
			return nil, ctx.Err()
		}))
	}
	js.CancelAll()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if !js.Wait(ctx) {
		t.Fatal("Wait timed out after CancelAll")
	}
	for _, j := range jobs {
		if got := j.Snapshot().Status; got != JobCancelled {
			t.Fatalf("job %s = %q after drain, want cancelled", j.ID, got)
		}
	}
	// A job registered after CancelAll is born with a dead context.
	late := js.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		return nil, ctx.Err()
	})
	waitStatus(t, late, JobCancelled)
}

// DELETE /v1/jobs/{id} end to end. The job under the endpoint is a
// controlled one that blocks until its context dies — a real sweep can
// finish faster than the HTTP round trip (the density memo makes even
// hundreds of pairs cheap), which would race the assertion — so the
// test pins the only interesting property: the DELETE reaches the
// job's context and the view transitions to "cancelled". Cancellation
// of a real mid-flight sweep is covered at the screen/planner layer.
func TestCancelJobEndpoint(t *testing.T) {
	env := newTestEnv(t)
	j := env.srv.jobs.Start("g", nil, func(ctx context.Context, _ *Job) (*ScreenResultView, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})

	var view JobView
	env.do(t, http.StatusAccepted, "DELETE", "/v1/jobs/"+j.ID, nil, &view)
	if view.ID != j.ID {
		t.Fatalf("cancel returned job %q, want %q", view.ID, j.ID)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		env.do(t, http.StatusOK, "GET", "/v1/jobs/"+j.ID, nil, &view)
		if view.Status != JobRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never left running after DELETE")
		}
		time.Sleep(time.Millisecond)
	}
	if view.Status != JobCancelled {
		t.Fatalf("job status after DELETE = %q, want cancelled", view.Status)
	}
	if view.Error == "" {
		t.Fatal("cancelled job view carries no error message")
	}

	// Unknown job → 404 with the plain error shape.
	req, err := http.NewRequest("DELETE", envURL+"/v1/jobs/nope", nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.hc.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE unknown job = %d, want 404", res.StatusCode)
	}
	var buf bytes.Buffer
	buf.ReadFrom(res.Body)
	var e errorResponse
	if err := json.Unmarshal(buf.Bytes(), &e); err != nil || e.Code != api.CodeNotFound || e.Reason == "" {
		t.Fatalf("404 body %q is not the error envelope", buf.String())
	}
}
