package server

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"tesc/api"
	"tesc/internal/screen"
)

// JobStatus and its states live in the public api package; the aliases
// keep this file and the handler layer reading naturally.
type JobStatus = api.JobStatus

const (
	JobRunning   = api.JobRunning
	JobDone      = api.JobDone
	JobFailed    = api.JobFailed
	JobCancelled = api.JobCancelled
)

// Job is one asynchronous screening run. Screening sweeps test O(|Q|²)
// pairs (§5.4) and can run for minutes on real vocabularies, so the
// service returns a job ID immediately and lets clients poll progress.
type Job struct {
	ID    string
	Graph string

	// cancel aborts the job's context; the screening sweep it feeds
	// checks the context between pairs and stops. Set at registration,
	// safe to call repeatedly.
	cancel context.CancelFunc
	// release returns the job's background admission slot; nil when the
	// job was started without one. Called exactly once when the job
	// finishes (the wrapper is idempotent).
	release func()

	mu       sync.Mutex
	status   JobStatus
	done     int
	total    int
	result   *ScreenResultView
	partial  []ScreenedPairView
	err      string
	created  time.Time
	finished time.Time
}

// The screening wire shapes live in the public api package.
type (
	ScreenedPairView = api.ScreenedPair
	PlannerStatsView = api.PlannerStats
	ScreenResultView = api.ScreenResult
)

func screenedPairViews(pairs []screen.PairResult) []ScreenedPairView {
	out := make([]ScreenedPairView, len(pairs))
	for i, p := range pairs {
		out[i] = ScreenedPairView{
			A: p.A, B: p.B,
			OccA: p.OccA, OccB: p.OccB,
			Tau: p.Tau, Z: p.Z,
			P: p.P, AdjP: p.AdjP,
			Significant: p.Significant,
			Skipped:     p.Skipped,
		}
	}
	return out
}

func screenResultView(r screen.Result) *ScreenResultView {
	return &ScreenResultView{
		Pairs:    screenedPairViews(r.Pairs),
		Tested:   r.Tested,
		Skipped:  r.Skipped,
		Rejected: r.Rejected,
		BFSRuns:  r.BFSRuns,
		MemoHits: r.MemoHits,
	}
}

func plannedResultView(r screen.PlanResult) *ScreenResultView {
	rejected := 0
	for _, p := range r.Pairs {
		if p.Significant {
			rejected++
		}
	}
	st := r.Stats
	return &ScreenResultView{
		Pairs:    screenedPairViews(r.Pairs),
		Tested:   st.FullTests,
		Skipped:  st.Skipped,
		Rejected: rejected,
		BFSRuns:  st.BFSRuns,
		MemoHits: st.MemoHits,
		Planner: &PlannerStatsView{
			Candidates:   st.Candidates,
			FullTests:    st.FullTests,
			PrunedEarly:  st.PrunedEarly,
			PrunedPrior:  st.PrunedPrior,
			Checkpoints:  st.Checkpoints,
			DensityEvals: st.DensityEvals,
		},
	}
}

// JobView is an immutable snapshot of a job — api.JobView on the wire.
// Partial is the planner's current ranked result set, visible only
// while a planned job is still running: pollers watch the ranking
// converge instead of staring at a counter.
type JobView = api.JobView

// Snapshot returns a consistent view of the job.
func (j *Job) Snapshot() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:      j.ID,
		Graph:   j.Graph,
		Status:  j.status,
		Done:    j.done,
		Total:   j.total,
		Error:   j.err,
		Result:  j.result,
		Created: j.created,
	}
	// Partial rankings stay visible on a cancelled planned job: the
	// pairs it finished are exact, and they are all the client gets.
	if (j.status == JobRunning || j.status == JobCancelled) && len(j.partial) > 0 {
		v.Partial = j.partial
	}
	if !j.finished.IsZero() {
		f := j.finished
		v.Finished = &f
	}
	return v
}

// setProgress folds concurrent progress reports with max: screening
// workers call screen.Config.Progress without a lock, so completion
// counts can arrive out of order, and a gauge that last-write-wins
// would be seen moving backwards by pollers.
func (j *Job) setProgress(done, total int) {
	j.mu.Lock()
	if done > j.done {
		j.done = done
	}
	j.total = total
	j.mu.Unlock()
}

// setPartial replaces the job's in-flight ranked result set, suitable
// for PlanConfig.Stream (whose calls are serialized). The pairs are
// rendered into a new slice: the planner reuses its backing array
// across improvements.
func (j *Job) setPartial(top []screen.PairResult) {
	views := screenedPairViews(top)
	j.mu.Lock()
	j.partial = views
	j.mu.Unlock()
}

// maxFinishedJobs bounds how many finished jobs are retained for
// polling. A screening result holds one record per tested pair —
// O(|Q|²) for real vocabularies — so an unbounded map would grow the
// daemon's memory with every sweep. Running jobs are never pruned.
const maxFinishedJobs = 64

// Jobs tracks asynchronous screening jobs by ID. Every job runs under
// a context derived from the tracker's base context, so CancelAll (the
// drain path) aborts every sweep with one call, and individual jobs
// cancel through DELETE /v1/jobs/{id}.
type Jobs struct {
	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu    sync.Mutex
	seq   int
	jobs  map[string]*Job
	order []string // insertion order, for pruning oldest finished first
}

// NewJobs returns an empty job tracker.
func NewJobs() *Jobs {
	ctx, cancel := context.WithCancel(context.Background())
	return &Jobs{baseCtx: ctx, baseCancel: cancel, jobs: make(map[string]*Job)}
}

// pruneLocked evicts the oldest finished jobs beyond maxFinishedJobs.
func (js *Jobs) pruneLocked() {
	finished := 0
	for _, id := range js.order {
		if j, ok := js.jobs[id]; ok && j.isFinished() {
			finished++
		}
	}
	if finished <= maxFinishedJobs {
		return
	}
	kept := js.order[:0]
	for _, id := range js.order {
		j, ok := js.jobs[id]
		if !ok {
			continue
		}
		if finished > maxFinishedJobs && j.isFinished() {
			delete(js.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	js.order = kept
}

func (j *Job) isFinished() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status != JobRunning
}

// register creates a running job for the named graph and tracks it,
// deriving the job's cancellable context from the tracker's base.
func (js *Jobs) register(graphName string) (*Job, context.Context) {
	js.mu.Lock()
	defer js.mu.Unlock()
	js.seq++
	ctx, cancel := context.WithCancel(js.baseCtx)
	j := &Job{
		ID:      fmt.Sprintf("job-%d", js.seq),
		Graph:   graphName,
		cancel:  cancel,
		status:  JobRunning,
		created: time.Now(),
	}
	js.jobs[j.ID] = j
	js.order = append(js.order, j.ID)
	js.pruneLocked()
	return j, ctx
}

// finish transitions the job out of JobRunning. On success res is the
// result the job serves. A cancellation error (the job's context was
// aborted) lands in JobCancelled, not JobFailed — the job did nothing
// wrong, somebody stopped wanting it — and a cancelled plan's ranking
// so far (res.Pairs) stays as the job's final partial: the pairs it
// completed are exact.
func (j *Job) finish(res *ScreenResultView, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	switch {
	case err == nil:
		j.status = JobDone
		j.result = res
		j.partial = nil // the final ranking supersedes any partial
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		j.status = JobCancelled
		j.err = err.Error()
		if res != nil && len(res.Pairs) > 0 {
			j.partial = res.Pairs
		}
	default:
		j.status = JobFailed
		j.err = err.Error()
	}
	j.mu.Unlock()
	j.cancel() // release the context's resources in every exit path
	if j.release != nil {
		j.release()
	}
}

// Start registers a new screening job for the named graph and runs fn
// in a fresh goroutine. fn receives the job's cancellable context
// (wire it into the sweep's Ctx) and the job, whose setProgress and
// setPartial are the sweep's Progress and Stream sinks; it returns the
// job's result, rendered once (see finish). release, when non-nil, is
// the job's admission slot, returned when the job finishes.
func (js *Jobs) Start(graphName string, release func(), fn func(ctx context.Context, j *Job) (*ScreenResultView, error)) *Job {
	j, ctx := js.register(graphName)
	j.release = release
	js.wg.Add(1)
	go func() {
		defer js.wg.Done()
		j.finish(fn(ctx, j))
	}()
	return j
}

// CancelAll aborts every job started from this tracker — the drain
// path. New jobs registered afterwards are born cancelled.
func (js *Jobs) CancelAll() {
	js.baseCancel()
}

// Wait blocks until every started job goroutine has exited or ctx
// expires, reporting whether all finished in time.
func (js *Jobs) Wait(ctx context.Context) bool {
	done := make(chan struct{})
	go func() {
		js.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-ctx.Done():
		return false
	}
}

// Get returns the job with the given ID, or false.
func (js *Jobs) Get(id string) (*Job, bool) {
	js.mu.Lock()
	defer js.mu.Unlock()
	j, ok := js.jobs[id]
	return j, ok
}
