package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"time"

	"tesc"
	"tesc/api"
	"tesc/client"
	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/screen"
	"tesc/internal/server"
	"tesc/internal/stats"
)

// screenK is the planner's k; screenH the vicinity level.
const (
	screenK = 10
	screenH = 2
)

// screenWorld is screen-k32's generated inputs: the 100k-node surrogate
// and a K=32 vocabulary (496 candidate pairs) — 8 signal events
// co-located in one community region, whose pairs attract, and 24
// background events in disjoint community blocks, whose pairs carry no
// signal. This is the tescbench -topk substrate.
type screenWorld struct {
	g      *tesc.Graph
	edges  string
	events map[string][]int
	store  *events.Store
	seeds  seedSource
}

func newScreenWorld(r *run) (*screenWorld, error) {
	nodes := max(int(100000*r.scale), 6000) // the vocabulary layout spans the first ~5.5k nodes
	g := tesc.RandomCoauthorshipGraph(float64(nodes)/100000, r.seed)
	edges, err := graphText(g)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewPCG(r.seed, 0xc0a1))
	ev := make(map[string][]int)
	addDistinct := func(name string, picks func() int, count int) {
		seen := make(map[int]bool)
		for k := 0; k < count; k++ {
			if v := picks(); !seen[v] {
				seen[v] = true
				ev[name] = append(ev[name], v)
			}
		}
	}
	for e := 0; e < 8; e++ {
		for c := 0; c < 10; c++ {
			addDistinct(fmt.Sprintf("sig-%d", e), func() int { return c*80 + rng.IntN(80) }, 50)
		}
	}
	for e := 0; e < 24; e++ {
		base := (20 + 2*e) * 80
		addDistinct(fmt.Sprintf("bg-%02d", e), func() int { return base + rng.IntN(160) }, 500)
	}
	return &screenWorld{g: g, edges: edges, events: ev, store: storeOf(g.NumNodes(), ev), seeds: seedSource{base: r.seed}}, nil
}

// request is a screening job: planned top-k when topK > 0, else the
// exhaustive sweep. One worker leaves the second core to the client and
// the server's other goroutines.
func screenRequest(seed uint64, topK int) api.ScreenRequest {
	return api.ScreenRequest{H: screenH, Tail: "positive", Workers: 1, Seed: seed, TopK: topK}
}

// runJob submits a job and polls it every 2 ms until it leaves
// "running"; the latency runs from the submit to the poll that saw it
// done.
func runJob(r *run, cl *client.Client, graphName string, req api.ScreenRequest) (api.JobView, time.Duration, error) {
	t0 := time.Now()
	acc, err := cl.Screen(r.ctx, graphName, req)
	if err != nil {
		return api.JobView{}, 0, fmt.Errorf("submitting job: %w", err)
	}
	v, err := cl.WaitJob(r.ctx, acc.JobID, 2*time.Millisecond)
	d := time.Since(t0)
	if err != nil {
		return v, d, fmt.Errorf("polling job %s: %w", acc.JobID, err)
	}
	if v.Status != api.JobDone || v.Result == nil {
		return v, d, fmt.Errorf("job %s ended %s: %s", acc.JobID, v.Status, v.Error)
	}
	return v, d, nil
}

// tauRanked returns the exhaustive result's tested pairs in the
// planner's total order — τ descending, ties by event names — the
// ranking a planned top-k must reproduce.
func tauRanked(pairs []api.ScreenedPair) []api.ScreenedPair {
	var out []api.ScreenedPair
	for _, p := range pairs {
		if p.Skipped == "" {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Tau != b.Tau {
			return a.Tau > b.Tau
		}
		if a.A != b.A {
			return a.A < b.A
		}
		return a.B < b.B
	})
	return out
}

// sameHead reports whether the top-k ranking is exactly the head of the
// exhaustive sweep's τ ranking: same pairs, same statistics.
func sameHead(top, full []api.ScreenedPair) bool {
	head := tauRanked(full)
	if len(top) != min(screenK, len(head)) {
		return false
	}
	for i := range top {
		if top[i].A != head[i].A || top[i].B != head[i].B || top[i].Tau != head[i].Tau || top[i].P != head[i].P {
			return false
		}
	}
	return true
}

// jobPair is one top-k job and the exhaustive job at the same seed.
type jobPair struct {
	seed      uint64
	top, full api.JobView
}

// screenPhase runs two job streams side by side until the deadline, one
// per connection: top-k jobs and exhaustive jobs over the same seed
// sequence, so both cores stay busy. Every top-k ranking is checked
// against the exhaustive sweep at its seed once both have finished.
func screenPhase(r *run, w *screenWorld, cl *client.Client, graphName string, d time.Duration) (top, full loadResult, first *jobPair) {
	base := w.seeds.next()
	seedOf := func(i int) uint64 { return splitmix64(base + uint64(i)) }
	deadline := time.Now().Add(d)
	var mu sync.Mutex
	views := [2]map[int]api.JobView{make(map[int]api.JobView), make(map[int]api.JobView)}
	mismatches := 0
	stream := func(kind int, res *loadResult) {
		topK := screenK
		if kind == 1 {
			topK = 0 // exhaustive
		}
		t0 := time.Now()
		for i := 0; time.Now().Before(deadline); i++ {
			res.attempted++
			v, dur, err := runJob(r, cl, graphName, screenRequest(seedOf(i), topK))
			if err != nil {
				res.failed++
				r.note(err)
				continue
			}
			res.lat = append(res.lat, dur)
			mu.Lock()
			views[kind][i] = v
			t, okT := views[0][i]
			f, okF := views[1][i]
			if okT && okF {
				delete(views[0], i)
				delete(views[1], i)
				if !sameHead(t.Result.Pairs, f.Result.Pairs) {
					mismatches++
					r.note(fmt.Errorf("seed %d: top-%d ranking differs from the exhaustive sweep's head", seedOf(i), screenK))
				}
				if first == nil {
					first = &jobPair{seed: seedOf(i), top: t, full: f}
				}
			}
			mu.Unlock()
		}
		res.elapsed = time.Since(t0)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); stream(0, &top) }()
	go func() { defer wg.Done(); stream(1, &full) }()
	wg.Wait()
	top.failed += mismatches
	return top, full, first
}

// verifyJobs checks one job pair against the library: tesc.ScreenTopK
// and tesc.Screen on the benchmark's own graph must rank the same pairs
// with bit-identical statistics.
func (w *screenWorld) verifyJobs(r *run, jp *jobPair) {
	opts := tesc.ScreenOptions{H: screenH, Tail: tesc.PositiveTail, Workers: 1, Seed: jp.seed}
	top, err := tesc.ScreenTopK(w.g, w.events, tesc.ScreenTopKOptions{ScreenOptions: opts, K: screenK})
	if err != nil {
		r.fail("library top-k screen: %v", err)
		return
	}
	full, err := tesc.Screen(w.g, w.events, opts)
	if err != nil {
		r.fail("library screen: %v", err)
		return
	}
	check := func(kind string, served []api.ScreenedPair, lib []tesc.ScreenedPair) {
		if len(served) != len(lib) {
			r.fail("%s job seed %d: %d pairs served, library has %d", kind, jp.seed, len(served), len(lib))
			return
		}
		for i := range lib {
			s, l := served[i], lib[i]
			if s.A != l.A || s.B != l.B || s.Tau != l.Tau || s.Z != l.Z || s.P != l.P || s.AdjP != l.AdjP {
				r.fail("%s job seed %d: pair %d served %s/%s tau=%v, library %s/%s tau=%v", kind, jp.seed, i, s.A, s.B, s.Tau, l.A, l.B, l.Tau)
				return
			}
		}
	}
	check("top-k", jp.top.Result.Pairs, top.Pairs)
	check("exhaustive", jp.full.Result.Pairs, full.Pairs)
}

// runScreen is screen-k32: screening jobs with one worker each, planned
// top-10 jobs on one connection and exhaustive 496-pair sweeps on the
// other, over the same seeds. The primary request is the top-k job, the
// auxiliary one the exhaustive job.
func runScreen(r *run) error {
	w, err := newScreenWorld(r)
	if err != nil {
		return err
	}
	n, err := startNode(server.Config{})
	if err != nil {
		return err
	}
	defer n.close()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	cl := client.New(n.url, client.WithHTTPClient(&http.Client{Transport: tr}))
	const graphName = "perf"
	up := func() error {
		if err := registerGraph(r.ctx, cl, graphName, w.edges, w.events); err != nil {
			return err
		}
		_, _, err := runJob(r, cl, graphName, screenRequest(w.seeds.next(), screenK))
		return err
	}
	setup, err := setupCycles(up, func() error { return cl.DeleteGraph(r.ctx, graphName) })
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	half := r.seconds
	if r.trace {
		half /= 2
	}
	var top, full loadResult
	var first *jobPair
	r.measure(half, func(d time.Duration, timed bool) {
		t, f, fp := screenPhase(r, w, cl, graphName, d)
		r.count(t)
		r.count(f)
		if timed {
			top, full, first = t, f, fp
		}
	})
	if first == nil {
		return fmt.Errorf("no job pair completed in %v", half)
	}
	w.verifyJobs(r, first)
	topMS, fullMS := msAll(top.lat), msAll(full.lat)
	if r.trace {
		return w.trace(r, n.srv, cl, graphName, time.Now().Add(r.seconds-half), median(topMS))
	}
	r.set("p50_ms", typical(topMS))
	r.set("tail_ms", tail(topMS, 0.9))
	r.set("qps", float64(len(top.lat)+len(full.lat))/max(top.elapsed, full.elapsed).Seconds())
	r.set("aux_p50_ms", typical(fullMS))
	return nil
}

// trace is screen-k32's traced replay, while exhaustive jobs keep
// running on the other connection as in the untraced measurement. Each
// iteration runs one top-k job through the client and, below it, the
// job as the server timed it and screen.Plan on the node's own graph;
// then screen.Plan again on the memo the first call filled, screen.Run
// cold and warm, and the event membership build. Cold minus warm is the
// density/BFS share. Once the other connection has stopped, every pair
// of the last exhaustive sweep is replayed leaf by leaf (problem,
// sample, density, Kendall, p-value), summed over the 496 pairs,
// against a memo-less screen.Run.
func (w *screenWorld) trace(r *run, srv *server.Server, cl *client.Client, graphName string, deadline time.Time, untracedP50 float64) error {
	served, err := servedState(srv, graphName, screenH, false)
	if err != nil {
		return err
	}
	g := served.g.Internal()
	pairs := screen.AllPairs(w.store, 1)
	fresh := func() (*screen.SharedMemo, error) { return screen.NewSharedMemo(g.NumNodes(), w.store.Names()) }
	var bg loadResult
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		bg = closedLoop(realClock{}, 1, deadline, func(int) error {
			_, _, err := runJob(r, cl, graphName, screenRequest(w.seeds.next(), 0))
			return err
		})
	}()
	t := r.spans
	layers := make(layerSamples)
	var lastCfg screen.Config
	var lastFull screen.Result
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		seed := w.seeds.next()
		cfg := screen.Config{H: screenH, Alternative: stats.Greater, Workers: 1, Seed: seed, Engines: served.pool}

		r.attempted++
		var view api.JobView
		root, dClient := t.timed("client.request", -1, i, func() { view, _, err = runJob(r, cl, graphName, screenRequest(seed, screenK)) })
		if err != nil {
			r.fail("traced job %d: %v", i, err)
			continue
		}
		job := t.add("server.job", root, i, view.Created, *view.Finished)
		dJob := view.Finished.Sub(view.Created)

		memo, err := fresh()
		if err != nil {
			return err
		}
		pcfg := screen.PlanConfig{Config: cfg, K: screenK}
		pcfg.Memo = memo
		var plan screen.PlanResult
		_, dPlan := t.timed("screen.plan", job, i, func() { plan, err = screen.Plan(g, w.store, pairs, pcfg) })
		if err != nil {
			return fmt.Errorf("screen.Plan: %w", err)
		}
		if !samePlan(view.Result.Pairs, plan.Pairs) {
			r.fail("traced job %d: served top-k differs from screen.Plan", i)
		}
		_, dPlanWarm := t.timed("screen.plan_warm", -1, i, func() { _, err = screen.Plan(g, w.store, pairs, pcfg) })
		if err != nil {
			return fmt.Errorf("warm screen.Plan: %w", err)
		}

		if memo, err = fresh(); err != nil {
			return err
		}
		rcfg := cfg
		rcfg.Memo = memo
		var full screen.Result
		_, dRun := t.timed("screen.run", -1, i, func() { full, err = screen.Run(g, w.store, pairs, rcfg) })
		if err != nil {
			return fmt.Errorf("screen.Run: %w", err)
		}
		_, dRunWarm := t.timed("screen.run_warm", -1, i, func() { _, err = screen.Run(g, w.store, pairs, rcfg) })
		if err != nil {
			return fmt.Errorf("warm screen.Run: %w", err)
		}
		sets := make([]*graph.NodeSet, len(w.store.Names()))
		for k, name := range w.store.Names() {
			sets[k] = w.store.Set(name)
		}
		_, dMembership := t.timed("core.membership", -1, i, func() { _, err = core.NewEventMembership(g.NumNodes(), sets) })
		if err != nil {
			return err
		}

		layers.add(map[string]float64{
			"client.request_ms":    ms(dClient),
			"http.roundtrip_ms":    ms(dClient - dJob),
			"server.handler_ms":    ms(dJob - dPlan),
			"screen.plan_ms":       ms(dPlan),
			"screen.plan_warm_ms":  ms(dPlanWarm),
			"screen.run_ms":        ms(dRun),
			"screen.run_warm_ms":   ms(dRunWarm),
			"core.membership_ms":   ms(dMembership),
			"screen.full_tests":    float64(plan.Stats.FullTests),
			"screen.pruned":        float64(plan.Stats.PrunedEarly + plan.Stats.PrunedPrior),
			"screen.density_evals": float64(plan.Stats.DensityEvals),
			"screen.bfs_runs":      float64(plan.Stats.BFSRuns),
			"screen.memo_hits":     float64(plan.Stats.MemoHits),
		})
		lastCfg, lastFull = cfg, full
	}
	<-bgDone
	r.count(bg)
	if lastFull.Tested > 0 {
		leaves, err := w.replaySweep(r, served, pairs, lastCfg, lastFull)
		if err != nil {
			return err
		}
		layers.add(leaves)
	}
	layers.report(r)
	r.set("trace.overhead", median(layers["client.request_ms"])/untracedP50-1)
	return nil
}

// samePlan compares a served top-k ranking with screen.Plan's.
func samePlan(served []api.ScreenedPair, lib []screen.PairResult) bool {
	if len(served) != len(lib) {
		return false
	}
	for i := range lib {
		if served[i].A != lib[i].A || served[i].B != lib[i].B || served[i].Tau != lib[i].Tau || served[i].P != lib[i].P {
			return false
		}
	}
	return true
}

// replaySweep re-runs the exhaustive sweep pair by pair through the
// library's leaves and returns the per-sweep sums. Every pair must
// reproduce full's τ bit for bit; the leaf residual is measured against
// a memo-less screen.Run, the sweep those leaves add up to.
func (w *screenWorld) replaySweep(r *run, served libState, pairs [][2]string, cfg screen.Config, full screen.Result) (map[string]float64, error) {
	t := r.spans
	g := served.g.Internal()
	want := make(map[[2]string]float64, len(full.Pairs))
	for _, p := range full.Pairs {
		if p.Skipped == "" {
			want[[2]string{p.A, p.B}] = p.Tau
		}
	}
	nomemo := cfg
	nomemo.NoMemo = true
	var err error
	_, dNoMemo := t.timed("screen.run_nomemo", -1, -1, func() { _, err = screen.Run(g, w.store, pairs, nomemo) })
	if err != nil {
		return nil, fmt.Errorf("memo-less screen.Run: %w", err)
	}
	sums := make(map[string]float64)
	var leafSum time.Duration
	sweep := t.open("screen.replay", -1, -1)
	for k, pair := range pairs {
		tau, tested := want[pair]
		if !tested {
			continue
		}
		req := api.CorrelateRequest{H: screenH, Method: "batch-bfs", Seed: pairSeed(cfg.Seed, pair[0], pair[1])}
		// The sweep builds each pair's problem from the store's cached
		// occurrence sets.
		newProblem := func() (*core.Problem, error) {
			return core.NewProblem(g, w.store.Set(pair[0]), w.store.Set(pair[1]))
		}
		out := make(map[string]float64)
		lr, err := replayLeaves(t, sweep, k, served, req, newProblem, false, out)
		if err != nil {
			return nil, fmt.Errorf("pair %s/%s: %w", pair[0], pair[1], err)
		}
		r.attempted++
		if lr.tau != tau {
			r.fail("replayed pair %s/%s: tau %v, sweep %v", pair[0], pair[1], lr.tau, tau)
		}
		leafSum += lr.sum
		for _, k := range []string{"core.problem_ms", "core.sample_ms", "core.density_ms", "stats.kendall_ms", "stats.pvalue_ms", "core.sampler_bfs", "core.density_bfs"} {
			sums[k] += out[k]
		}
	}
	t.close(sweep)
	sums["trace.leaf_residual"] = float64(dNoMemo-leafSum) / float64(dNoMemo)
	return sums, nil
}

// pairSeed is the per-pair sampling seed the sweep derives from its run
// seed (FNV-1a over "a\x00b", keyed by the seed), reproduced here so the
// leaf replay draws each pair's exact sample.
func pairSeed(seed uint64, a, b string) uint64 {
	h := seed ^ 14695981039346656037
	for _, s := range []string{a, "\x00", b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}
