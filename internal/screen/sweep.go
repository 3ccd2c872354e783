package screen

import (
	"fmt"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
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
// can. Defaults, validation, memo binding, the worker pool, the cancel
// check, Progress and the per-pair test all live here, once.

// Normalize fills the zero-means-default fields and validates the
// result: it returns the config Run uses, or the error Run returns, so
// a caller can refuse a bad request before queueing a sweep.
func (cfg Config) Normalize() (Config, error) {
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

// Normalize is Config.Normalize plus the planner's own fields: it
// returns the config Plan uses, or the error Plan returns.
func (cfg PlanConfig) Normalize() (PlanConfig, error) {
	var err error
	if cfg.Config, err = cfg.Config.Normalize(); err != nil {
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
	if cfg.firstCheckpoint == 0 {
		cfg.firstCheckpoint = defaultFirstCheckpoint
	}
	if cfg.firstCheckpoint < 2 {
		return cfg, fmt.Errorf("screen: first checkpoint must be >= 2, got %d", cfg.firstCheckpoint)
	}
	return cfg, nil
}

// sweep screens pairs under cfg. It returns the result of every
// candidate tested in full or skipped (with its reason), in input
// order, and the work accounting; pruned candidates are left out. On
// cancellation the partial results come back with the error; every
// other error returns nothing.
func sweep(g *graph.Graph, store *events.Store, pairs [][2]string, cfg PlanConfig) ([]PairResult, PlanStats, error) {
	cfg, err := cfg.Normalize()
	if err != nil {
		return nil, PlanStats{}, err
	}
	if err := cfg.canceled(); err != nil {
		return nil, PlanStats{}, err
	}
	memo, mem, eventIdx, err := bindSweepMemo(g, store, pairs, cfg.Config)
	if err != nil {
		return nil, PlanStats{}, err
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
		queue = append(queue, planCandidate{idx: i})
	}
	// The bar can prune only in threshold mode or when k leaves some
	// candidate out. Otherwise — the exhaustive sweep — the priority
	// order and the checkpoint schedule are pure overhead: pairs run in
	// input order, each in one density pass, and the bar matters only
	// to a Stream.
	prune := cfg.K == 0 || cfg.K < len(queue)
	if prune {
		prioritize(store, queue, results)
	}
	bar := &planBar{k: cfg.K, theta: cfg.Theta, alt: cfg.Alternative, stream: cfg.Stream}
	offer := prune || cfg.Stream != nil
	// The prior bound's event vicinity sizes: a caller-owned memo keeps
	// them across sweeps, any other sweep counts its own.
	balls := new(ballSizes)
	if memo != nil && cfg.Memo != nil {
		balls = &cfg.Memo.balls
		// A caller-owned memo is settled by every sweep that finishes
		// on it; a one-pass sweep on a settled one ranks its events'
		// densities first (ranks.go); every sweep reads the table.
		key := popKey{g, store, cfg.H}
		defer cfg.Memo.settle(key)
		if !prune {
			var evs []int
			for _, c := range queue {
				evs = append(evs, eventIdx[results[c.idx].A], eventIdx[results[c.idx].B])
			}
			slices.Sort(evs)
			cfg.Memo.rankEvents(key, slices.Compact(evs))
		}
	}

	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(queue))
	// Work is handed out by an atomic cursor — one fetch-add per pair —
	// and worker accounting is folded once at exit.
	var (
		next       atomic.Int64
		cancelStop atomic.Bool
		mu         sync.Mutex // guards st while workers fold
	)
	worker := func() {
		bfs := cfg.Engines.Acquire(g)
		defer cfg.Engines.Put(bfs)
		scratch := scratchPool.Get().(*workerScratch)
		defer scratchPool.Put(scratch)
		w := sweepWorker{g: g, store: store, cfg: &cfg, eventIdx: eventIdx, bar: bar, prune: prune, balls: balls, bfs: bfs, workerScratch: scratch}
		if memo != nil {
			if multi, err := core.NewMultiEvaluator(g, mem, cfg.H, bfs); err == nil {
				w.src = &memoSource{memo: memo, multi: multi, scratch: make([]int32, mem.NumEvents()), shared: cfg.Memo}
			}
		}
		for {
			i := int(next.Add(1)) - 1
			if i >= len(queue) {
				break
			}
			// A canceled sweep stops before spending BFS work on this
			// pair: the caller is gone.
			if cfg.canceled() != nil {
				cancelStop.Store(true)
				break
			}
			c := &queue[i]
			var fate pairFate
			results[c.idx], fate = w.planPair(results[c.idx])
			if fate == fateCanceled {
				cancelStop.Store(true)
				break
			}
			if fate == fateFull && offer {
				bar.offer(results[c.idx])
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

// prioritize is the planner's "query planning" step: each survivor gets
// its priority (occurrence-set cosine overlap, a pure co-location
// heuristic: order affects only how fast the bar rises, never which
// pairs survive). O(K²) set intersections instead of O(K²) full tests.
// The queue is then sorted best-first: priorities are static, so a
// deterministic sort plus the workers' atomic cursor is the
// max-priority queue, without a heap's lock traffic.
func prioritize(store *events.Store, queue []planCandidate, pairs []PairResult) {
	for i := range queue {
		c, p := &queue[i], &pairs[queue[i].idx]
		va, vb := store.Set(p.A), store.Set(p.B)
		c.priority = float64(va.IntersectLen(vb)) / math.Sqrt(float64(p.OccA)*float64(p.OccB))
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
	fatePrunedPrior
	fatePrunedEarly
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
	case fatePrunedPrior:
		s.PrunedPrior++
	case fatePrunedEarly:
		s.PrunedEarly++
	case fateSkipped:
		s.Skipped++
	}
}

// add folds a worker's accounting into the sweep's.
func (s *PlanStats) add(o PlanStats) {
	s.FullTests += o.FullTests
	s.PrunedPrior += o.PrunedPrior
	s.PrunedEarly += o.PrunedEarly
	s.Skipped += o.Skipped
	s.Checkpoints += o.Checkpoints
	s.DensityEvals += o.DensityEvals
	s.BFSRuns += o.BFSRuns
	s.MemoHits += o.MemoHits
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
	balls    *ballSizes

	bfs   *graph.BFS  // the worker's engine: sampling and density passes
	src   *memoSource // nil without the memo: per-pair evaluators
	stats PlanStats   // folded into the sweep's at exit
	*workerScratch
}

// workerScratch is a sweep worker's per-pair working memory, pooled
// across sweeps so a warm screen allocates none of it.
type workerScratch struct {
	pop      []graph.NodeID      // the pair's reference population; the sample is its prefix
	tau      stats.KendallPrefix // the pair's density prefix, sorted
	schedule []int               // the pair's checkpoints
}

var scratchPool = sync.Pool{New: func() any { return new(workerScratch) }}

// population copies the pair's reference population V^h(Va∪Vb) into
// w.pop — Batch BFS over the pair's event nodes, which a shared memo
// caches per (graph, store, h) so later sweeps on the snapshot skip
// both the population BFS and the problem set-up. planPair draws its
// sample from w.pop. The returned problem is nil on a cache hit; only
// the memo-less density path needs it, and that path has no cache.
func (w *sweepWorker) population(pair [2]string) (*core.Problem, error) {
	var shared *SharedMemo
	if w.src != nil {
		shared = w.src.shared
	}
	var p *core.Problem
	var pop []graph.NodeID
	var ok bool
	if shared != nil {
		pop, ok = shared.population(w.g, w.store, w.cfg.H, pair)
	}
	if !ok {
		var err error
		if p, err = core.NewProblem(w.g, w.store.Set(pair[0]), w.store.Set(pair[1])); err != nil {
			return nil, err
		}
		pop = w.bfs.Collect(p.EventNodes(), w.cfg.H)
		if shared != nil {
			shared.keepPopulation(w.g, w.store, w.cfg.H, pair, pop)
		}
	}
	// The draw permutes its input, and the engine's visit buffer (a
	// miss) is overwritten by the prior's ball counts and the density
	// passes between checkpoints: draw from a copy.
	w.pop = append(w.pop[:0], pop...)
	return p, nil
}

// overlap returns |V^h(Va)| + |V^h(Vb)| − |V^h(Va∪Vb)|, the number of
// nodes within h of both of the pair's events, for the population in
// w.pop. Each event's vicinity is counted by one BFS per (graph, store,
// h) and kept in w.balls.
func (w *sweepWorker) overlap(a, b string) int {
	return w.ballSize(a) + w.ballSize(b) - len(w.pop)
}

func (w *sweepWorker) ballSize(name string) int {
	key := popKey{w.g, w.store, w.cfg.H}
	if n, ok := w.balls.get(key, name); ok {
		return n
	}
	n := len(w.bfs.Collect(w.store.Set(name).Members(), w.cfg.H))
	w.balls.put(key, name, n)
	return n
}

// planPair tests one candidate: collect its reference population, prune
// it there if the prior bound already falls strictly below the bar (a
// positive-tail plan only), else draw its reference sample (the pair's
// own pairSeed PCG stream, so the sample depends only on the seed and
// the pair), then evaluate densities — in one pass when the bar cannot
// prune, else along the checkpoint schedule, extending the draw and the
// Kendall prefix chunk by chunk and pruning as soon as the score bound
// drops strictly below the bar. A pair that runs to the end finishes
// with the full-sample Kendall statistic — its last Extend; which path
// it took cannot change a bit of it.
func (w *sweepWorker) planPair(res PairResult) (PairResult, pairFate) {
	cfg := w.cfg
	seed := pairSeed(cfg.Seed, res.A, res.B)
	rng := rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
	// A pruning pair draws its references per checkpoint, so one
	// pruned at m pays m random numbers; a one-pass pair draws all at
	// once.
	first := cfg.SampleSize
	if w.prune {
		first = min(cfg.firstCheckpoint, first)
	}
	p, err := w.population([2]string{res.A, res.B})
	if err != nil {
		res.Skipped = err.Error()
		return res, fateSkipped
	}
	n := min(cfg.SampleSize, len(w.pop))
	// The prior pass comes before the draw, so a pair it keeps draws
	// the stream it always drew. Strictly below the bar, as at the
	// checkpoints; the bound is never negative, so a bar at or below 0
	// cannot prune.
	if w.prune && cfg.Alternative == stats.Greater {
		if bar := w.bar.bar(); bar > 0 && priorTauBound(w.overlap(res.A, res.B), n) < bar {
			return res, fatePrunedPrior
		}
	}
	nodes, err := core.DrawFromPopulation(w.pop, 0, first, rng)
	if err != nil {
		res.Skipped = err.Error()
		return res, fateSkipped
	}

	var eval *core.DensityEvaluator
	if w.src != nil {
		w.src.retarget(w.eventIdx[res.A], w.eventIdx[res.B])
	} else {
		eval = core.NewDensityEvaluatorBFS(p, cfg.H, w.bfs)
	}
	// density evaluates rs. The memo source returns its per-worker
	// scratch, valid until the next call; a fresh evaluator checks the
	// context between traversal chunks.
	density := func(rs []graph.NodeID) (sa, sb []float64, err error) {
		if eval != nil {
			before := eval.BFSCount
			sa, sb, _, err = eval.EvalAllCtx(cfg.Ctx, rs)
			w.stats.BFSRuns += eval.BFSCount - before
		} else {
			before := w.src.multi.BFSCount
			var hits int64
			sa, sb, hits = w.src.EvalAll(rs)
			w.stats.BFSRuns += w.src.multi.BFSCount - before
			w.stats.MemoHits += hits
		}
		w.stats.DensityEvals += int64(len(rs))
		return sa, sb, err
	}

	// The prefix keeps every chunk's keys sorted, so a checkpoint sorts
	// only the chunk since the last one and merges it in. Chunks are
	// keyed by the events' density ranks while the shared memo's table
	// ranks every node drawn so far (the table is read once per pair: a
	// single-worker sweep's Progress callback may invalidate between
	// pairs).
	var ranks *rankTable
	if w.src != nil && w.src.shared != nil {
		ranks = w.src.shared.ranks.Load()
	}
	var k stats.TauResult
	w.tau.Reset()
	extend := func(m int) error {
		if m > len(nodes) {
			// sample has checked the population, so the draw cannot fail.
			nodes, _ = core.DrawFromPopulation(w.pop, len(nodes), m, rng)
		}
		rs := nodes[w.tau.Len():m]
		if ranks != nil {
			if kx, ky, ok := w.src.rankKeys(ranks, rs); ok {
				w.stats.MemoHits += int64(len(rs))
				w.stats.DensityEvals += int64(len(rs))
				k = w.tau.ExtendKeys(kx, ky)
				return nil
			}
			// rs holds a node published after the build: re-key the
			// prefix as floats and go on. Its nodes are ranked, hence
			// published, so the re-read is all memo hits, which the rank
			// path has counted once already.
			ranks = nil
			if done := nodes[:w.tau.Len()]; len(done) > 0 {
				w.tau.Reset()
				sa, sb, _ := w.src.EvalAll(done)
				w.tau.Extend(sa, sb)
			}
		}
		sa, sb, err := density(rs)
		if err != nil {
			return err
		}
		if w.prune {
			k = w.tau.Extend(sa, sb)
		} else {
			// A one-pass pair's one chunk is its whole sample: its
			// densities are ranked and counted, not sorted as floats.
			k = w.tau.Kendall(sa, sb)
		}
		return nil
	}
	var schedule []int
	if w.prune {
		w.schedule = checkpointSchedule(w.schedule, cfg.firstCheckpoint, n, cfg.BoundAlpha > 0)
		schedule = w.schedule
	}
	for _, m := range schedule {
		// Checkpoints are the planner's natural cancellation points: the
		// densities already paid for stay in the memo, and nothing
		// partial ever reaches the bar.
		if cfg.canceled() != nil || extend(m) != nil {
			return res, fateCanceled
		}
		w.stats.Checkpoints++
		_, scoreUB := checkpointScoreBound(cfg.Alternative, k, m, n, cfg.BoundAlpha)
		// Strictly below the bar: the pair's final score cannot reach the
		// k-th best completed score (or θ), under the bound. Ties at the
		// bar keep running — that is what makes the planned top-k set
		// exactly the exhaustive one's.
		if scoreUB < w.bar.bar() {
			w.countRanked(ranks)
			return res, fatePrunedEarly
		}
	}
	if extend(n) != nil {
		return res, fateCanceled
	}
	w.countRanked(ranks)
	res.Tau, res.Z = k.Tau, k.Z
	res.P = stats.PValueZ(res.Z, cfg.Alternative)
	res.AdjP = res.P
	res.Significant = res.P < cfg.Alpha
	return res, fateFull
}

// countRanked counts a pair that ran on rank keys to the end: its table
// is still set.
func (w *sweepWorker) countRanked(t *rankTable) {
	if t != nil {
		w.src.shared.rankPairs.Add(1)
	}
}
