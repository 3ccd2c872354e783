package screen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// This file is the one screening engine. Run and Plan both call sweep:
// the exhaustive §5.4 sweep is a plan with k = every pair, whose bar can
// never prune, and a planned screen is the same sweep with a bar that
// can. Defaults, validation, memo binding, the worker pool, the
// stale-epoch and cancel checks, Progress and the per-pair test all live
// here, once.

// Validate reports the error Run and Plan return for cfg's shared
// fields — H, SampleSize and Alpha after the zero-means-default step —
// so a caller can refuse a bad request before queueing a sweep.
func (cfg Config) Validate() error {
	_, err := cfg.normalized()
	return err
}

// normalized fills the zero-means-default fields and validates the
// result.
func (cfg Config) normalized() (Config, error) {
	if cfg.H < 1 {
		return cfg, fmt.Errorf("screen: H must be >= 1")
	}
	if cfg.SampleSize == 0 {
		cfg.SampleSize = 900
	}
	if cfg.SampleSize < 2 {
		return cfg, fmt.Errorf("screen: sample size must be >= 2, got %d", cfg.SampleSize)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.05
	}
	if cfg.Alpha <= 0 || cfg.Alpha >= 1 || math.IsNaN(cfg.Alpha) {
		return cfg, fmt.Errorf("screen: alpha must be in (0,1), got %g", cfg.Alpha)
	}
	if cfg.MinOccurrences < 1 {
		cfg.MinOccurrences = 1
	}
	return cfg, nil
}

// normalized is Config.normalized plus the planner's own fields.
func (cfg PlanConfig) normalized() (PlanConfig, error) {
	var err error
	if cfg.Config, err = cfg.Config.normalized(); err != nil {
		return cfg, err
	}
	switch {
	case cfg.K < 0:
		return cfg, fmt.Errorf("screen: plan k must be >= 0, got %d", cfg.K)
	case cfg.K == 0:
		if math.IsNaN(cfg.Theta) || cfg.Theta < -1 || cfg.Theta > 1 {
			return cfg, fmt.Errorf("screen: threshold mode needs theta in [-1,1], got %g", cfg.Theta)
		}
	case cfg.Theta != 0:
		return cfg, fmt.Errorf("screen: theta is a threshold-mode parameter; it must be 0 when k > 0")
	}
	if math.IsNaN(cfg.BoundAlpha) || cfg.BoundAlpha >= 1 {
		return cfg, fmt.Errorf("screen: bound alpha must be below 1 (negative disables the statistical bound), got %g", cfg.BoundAlpha)
	}
	if cfg.BoundAlpha == 0 {
		cfg.BoundAlpha = defaultBoundAlpha
	}
	if cfg.FirstCheckpoint == 0 {
		cfg.FirstCheckpoint = stats.KendallNaiveCutoff
	}
	if cfg.FirstCheckpoint < 2 {
		return cfg, fmt.Errorf("screen: first checkpoint must be >= 2, got %d", cfg.FirstCheckpoint)
	}
	return cfg, nil
}

// sweep screens pairs under cfg. It returns the result of every
// candidate tested in full or skipped (with its reason), in input
// order, and the work accounting; pruned candidates are left out. On
// cancellation the partial results come back with the error; every
// other error returns nothing.
func sweep(g *graph.Graph, store *events.Store, pairs [][2]string, cfg PlanConfig) ([]PairResult, PlanStats, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return nil, PlanStats{}, err
	}
	stale := func() bool { return cfg.CurrentEpoch != nil && cfg.CurrentEpoch() != cfg.Epoch }
	if stale() {
		return nil, PlanStats{}, ErrStaleEpoch
	}
	if err := cfg.canceled(); err != nil {
		return nil, PlanStats{}, err
	}
	memo, mem, eventIdx, err := bindSweepMemo(g, store, pairs, cfg.Config)
	if err != nil {
		return nil, PlanStats{}, err
	}
	var hitsBefore int64
	if memo != nil {
		hitsBefore = memo.memoHits.Load()
	}

	// Progress: exactly once per candidate, each value 1..total
	// delivered once, no lock held.
	total := len(pairs)
	var done atomic.Int64
	progress := func() {
		d := int(done.Add(1))
		if cfg.Progress != nil {
			cfg.Progress(d, total)
		}
	}

	results := make([]PairResult, len(pairs))
	fates := make([]pairFate, len(pairs))
	st := PlanStats{Candidates: len(pairs)}
	queue := make([]planCandidate, 0, len(pairs))
	for i, pair := range pairs {
		r := &results[i]
		*r = PairResult{A: pair[0], B: pair[1], OccA: store.Count(pair[0]), OccB: store.Count(pair[1])}
		if r.OccA < cfg.MinOccurrences || r.OccB < cfg.MinOccurrences {
			r.Skipped = "below occurrence threshold"
			fates[i] = fateSkipped
			st.Skipped++
			progress()
			continue
		}
		queue = append(queue, planCandidate{idx: i, priorUB: 1})
	}
	// The bar can prune only in threshold mode or when k leaves some
	// candidate out. Otherwise — the exhaustive sweep — the prior pass
	// and the checkpoint schedule are pure overhead: pairs run in input
	// order, each in one density pass, and the bar matters only to a
	// Stream.
	prune := cfg.K == 0 || cfg.K < len(queue)
	if prune {
		prioritize(g, store, queue, results, cfg)
	}
	bar := &planBar{k: cfg.K, theta: cfg.Theta, alt: cfg.Alternative, stream: cfg.Stream}
	offer := prune || cfg.Stream != nil

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(queue))
	// Work is handed out by an atomic cursor — one fetch-add per pair —
	// and worker accounting is folded once at exit.
	var (
		next       atomic.Int64
		staleStop  atomic.Bool
		cancelStop atomic.Bool
		mu         sync.Mutex // guards st while workers fold
	)
	worker := func() {
		w := sweepWorker{g: g, store: store, cfg: &cfg, eventIdx: eventIdx, bar: bar, prune: prune,
			sampler: &core.BatchBFSSampler{Engines: cfg.Engines}}
		if memo != nil {
			var bfs *graph.BFS
			if cfg.Engines != nil && cfg.Engines.Graph() == g {
				bfs = cfg.Engines.Get()
				defer cfg.Engines.Put(bfs)
			}
			if multi, err := core.NewMultiEvaluator(g, mem, cfg.H, bfs); err == nil {
				w.src = &memoSource{memo: memo, multi: multi, scratch: make([]int32, mem.NumEvents()), shared: cfg.Memo}
			}
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= len(queue) {
				break
			}
			// Re-validate the pinned epoch before spending BFS work on
			// this pair; a stale sweep is discarded whole. A canceled
			// sweep stops the same way: the caller is gone.
			if stale() {
				staleStop.Store(true)
				break
			}
			if cfg.canceled() != nil {
				cancelStop.Store(true)
				break
			}
			c := &queue[i]
			fate := fatePrunedPrior
			// The reach bound may already cap this pair below the bar:
			// discarded without sampling a single reference.
			if c.priorUB >= bar.bar() {
				results[c.idx], fate = w.planPair(results[c.idx])
				if fate == fateCanceled {
					cancelStop.Store(true)
					break
				}
				if fate == fateFull && offer {
					bar.offer(results[c.idx])
				}
			}
			fates[c.idx] = fate
			w.stats.count(fate)
			progress()
		}
		mu.Lock()
		st.add(w.stats)
		mu.Unlock()
	}
	if workers <= 1 {
		// A single-worker sweep (every standing-query re-screen is one)
		// runs inline: no goroutine spawn, no scheduler handoff.
		worker()
	} else {
		var wg sync.WaitGroup
		for range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}
	// The closing re-validation: a delta that landed after the last
	// per-pair check still invalidates the sweep — some pairs may have
	// sampled reference nodes from the superseded snapshot's view.
	if staleStop.Load() || stale() {
		return nil, PlanStats{}, ErrStaleEpoch
	}
	if memo != nil {
		// This sweep's hits only: a SharedMemo's counter spans its whole
		// lifetime across many sweeps.
		st.MemoHits = memo.memoHits.Load() - hitsBefore
	}
	kept := results[:0]
	for i := range results {
		if fates[i] == fateFull || fates[i] == fateSkipped {
			kept = append(kept, results[i])
		}
	}
	if cancelStop.Load() {
		return kept, st, cfg.canceled()
	}
	return kept, st, nil
}

// prioritize is the planner's prior pass, the "query planning" step:
// each survivor gets its priority (occurrence-set cosine overlap, a pure
// co-location heuristic: order affects only how fast the bar rises,
// never which pairs survive) and, when the vicinity index allows, a
// sound prior bound on its score. O(K²) set intersections instead of
// O(K²) full tests. The queue is then sorted best-first: priorities are
// static, so a deterministic sort plus the workers' atomic cursor is
// the max-priority queue, without a heap's lock traffic.
func prioritize(g *graph.Graph, store *events.Store, queue []planCandidate, pairs []PairResult, cfg PlanConfig) {
	reach := priorReach(g, store, cfg)
	for i := range queue {
		c, p := &queue[i], &pairs[queue[i].idx]
		va, vb := store.Set(p.A), store.Set(p.B)
		c.priority = float64(va.CountIn(vb.Members())) / math.Sqrt(float64(p.OccA)*float64(p.OccB))
		if reach != nil {
			c.priorUB = math.Min(reach.scoreUB(p.A, p.OccA, p.OccB), reach.scoreUB(p.B, p.OccA, p.OccB))
		}
	}
	sort.Slice(queue, func(i, j int) bool {
		if queue[i].priority != queue[j].priority {
			return queue[i].priority > queue[j].priority
		}
		a, b := &pairs[queue[i].idx], &pairs[queue[j].idx]
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
}

// bindSweepMemo sets up a sweep's cross-pair density memo. The memo
// needs the event vocabulary as an indexed set: the distinct event
// names of the pair list (sorted for determinism) and their occurrence
// sets. A caller-owned SharedMemo supplies its own (fixed) vocabulary
// instead, so its cached count vectors keep their layout across runs;
// NoMemo (or a budget miss) returns all-nil and the sweep evaluates
// densities per pair.
func bindSweepMemo(g *graph.Graph, store *events.Store, pairs [][2]string, cfg Config) (*densityMemo, *core.EventMembership, map[string]int, error) {
	var memo *densityMemo
	var mem *core.EventMembership
	eventIdx := make(map[string]int)
	switch {
	case cfg.NoMemo:
	case cfg.Memo != nil:
		m, err := cfg.Memo.bind(g.NumNodes(), store, pairs, eventIdx)
		if err != nil {
			return nil, nil, nil, err
		}
		mem = m
		memo = cfg.Memo.memo
	default:
		var names []string
		for _, p := range pairs {
			for _, name := range []string{p[0], p[1]} {
				if _, ok := eventIdx[name]; !ok {
					eventIdx[name] = -1 // mark; index assigned after sort
					names = append(names, name)
				}
			}
		}
		sort.Strings(names)
		sets := make([]*graph.NodeSet, len(names))
		for k, name := range names {
			eventIdx[name] = k
			sets[k] = store.Set(name)
		}
		if m, err := core.NewEventMembership(g.NumNodes(), sets); err == nil {
			mem = m
			memo = newDensityMemo(g.NumNodes(), len(names))
		}
	}
	return memo, mem, eventIdx, nil
}

// pairFate classifies how the sweep disposed of a candidate.
type pairFate uint8

const (
	// fatePending marks a candidate no worker reached (the sweep
	// stopped early).
	fatePending pairFate = iota
	fateFull
	fatePrunedEarly
	fatePrunedPrior
	fateSkipped
	// fateCanceled marks a pair abandoned mid-evaluation because the
	// sweep's context was canceled; the worker stops.
	fateCanceled
)

// count tallies one candidate's fate.
func (s *PlanStats) count(f pairFate) {
	switch f {
	case fateFull:
		s.FullTests++
	case fatePrunedEarly:
		s.PrunedEarly++
	case fatePrunedPrior:
		s.PrunedPrior++
	case fateSkipped:
		s.Skipped++
	}
}

// add folds a worker's accounting into the sweep's.
func (s *PlanStats) add(o PlanStats) {
	s.FullTests += o.FullTests
	s.PrunedEarly += o.PrunedEarly
	s.PrunedPrior += o.PrunedPrior
	s.Skipped += o.Skipped
	s.Checkpoints += o.Checkpoints
	s.DensityEvals += o.DensityEvals
	s.BFSRuns += o.BFSRuns
}

// sweepWorker is one worker's view of a sweep: the shared inputs plus
// private sampling and density machinery reused across its pairs.
type sweepWorker struct {
	g        *graph.Graph
	store    *events.Store
	cfg      *PlanConfig
	eventIdx map[string]int
	bar      *planBar
	prune    bool // false: no checkpoints, each pair is one density pass

	sampler core.Sampler
	src     *memoSource // nil without the memo: per-pair evaluators
	sa, sb  []float64   // density prefix scratch for checkpointed pairs
	stats   PlanStats   // folded into the sweep's at exit
}

// planPair tests one candidate: draw its reference sample (the pair's
// own pairSeed PCG stream, so the sample depends only on the seed and
// the pair), then evaluate densities — in one pass when the bar cannot
// prune, else along the checkpoint schedule, extending the density
// prefix and pruning as soon as the score bound drops strictly below
// the bar. A pair that runs to the end finishes with the full-sample
// Kendall statistic; which path it took cannot change a bit of it.
func (w *sweepWorker) planPair(res PairResult) (PairResult, pairFate) {
	cfg := w.cfg

	var p *core.Problem
	var err error
	if w.src != nil && w.src.shared != nil {
		// Standing queries re-test the same pair across snapshots; the
		// shared memo caches the pair's Va∪b so only real occurrence
		// changes rebuild it.
		p, err = w.src.shared.problemFor(w.g, w.store, [2]string{res.A, res.B})
	} else {
		p, err = core.NewProblem(w.g, w.store.Set(res.A), w.store.Set(res.B))
	}
	if err != nil {
		res.Skipped = err.Error()
		return res, fateSkipped
	}

	seed := pairSeed(cfg.Seed, res.A, res.B)
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	sample, err := w.sampler.SampleReferences(p, cfg.H, cfg.SampleSize, rng)
	if err != nil {
		res.Skipped = err.Error()
		return res, fateSkipped
	}
	nodes := sample.Nodes
	n := len(nodes)

	var source core.DensitySource
	var eval *core.DensityEvaluator
	if w.src != nil {
		w.src.retarget(w.eventIdx[res.A], w.eventIdx[res.B])
		source = w.src
	} else {
		if cfg.Engines != nil && cfg.Engines.Graph() == w.g {
			bfs := cfg.Engines.Get()
			defer cfg.Engines.Put(bfs)
			eval = core.NewDensityEvaluatorBFS(p, cfg.H, bfs)
		} else {
			eval = core.NewDensityEvaluator(p, cfg.H)
		}
		source = eval
	}
	// density evaluates rs. The memo source returns its per-worker
	// scratch, valid until the next call; a fresh evaluator checks the
	// context between traversal chunks.
	density := func(rs []graph.NodeID) (sa, sb []float64, err error) {
		before := source.Traversals()
		if eval != nil {
			sa, sb, _, err = eval.EvalAllCtx(cfg.Ctx, rs)
		} else {
			sa, sb, _ = w.src.EvalAll(rs)
		}
		w.stats.BFSRuns += source.Traversals() - before
		w.stats.DensityEvals += int64(len(rs))
		return sa, sb, err
	}

	var schedule []int
	if w.prune {
		schedule = checkpointSchedule(cfg.FirstCheckpoint, n)
	}
	var sa, sb []float64
	if len(schedule) == 0 {
		if sa, sb, err = density(nodes); err != nil {
			return res, fateCanceled
		}
	} else {
		if cap(w.sa) < n {
			w.sa, w.sb = make([]float64, 0, n), make([]float64, 0, n)
		}
		sa, sb = w.sa[:0], w.sb[:0]
		extend := func(m int) error {
			csa, csb, err := density(nodes[len(sa):m])
			sa, sb = append(sa, csa...), append(sb, csb...)
			return err
		}
		for _, m := range schedule {
			// Checkpoints are the planner's natural cancellation points:
			// the densities already paid for stay in the memo, and
			// nothing partial ever reaches the bar.
			if cfg.canceled() != nil || extend(m) != nil {
				return res, fateCanceled
			}
			w.stats.Checkpoints++
			k := stats.KendallAuto(sa, sb)
			_, scoreUB := checkpointScoreBound(cfg.Alternative, k, m, n, cfg.BoundAlpha)
			// Strictly below the bar: the pair's final score cannot reach
			// the k-th best completed score (or θ), under the bound. Ties
			// at the bar keep running — that is what makes the planned
			// top-k set exactly the exhaustive one's.
			if scoreUB < w.bar.bar() {
				return res, fatePrunedEarly
			}
		}
		if extend(n) != nil {
			return res, fateCanceled
		}
	}
	k := stats.KendallAuto(sa, sb)
	res.Tau, res.Z = k.Tau, k.Z
	res.P = stats.PValueZ(res.Z, cfg.Alternative)
	res.AdjP = res.P
	res.Significant = res.P < cfg.Alpha
	return res, fateFull
}
