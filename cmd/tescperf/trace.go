package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
	"time"

	"tesc"
	"tesc/api"
	"tesc/client"
	"tesc/internal/core"
	"tesc/internal/graph"
	"tesc/internal/server"
	"tesc/internal/stats"
)

// span is one traced call. Start and End are nanoseconds since the
// recorder's epoch; Parent indexes the span list (-1 for a root). A
// parent's children are replays of the same request one layer lower,
// run after it rather than inside it, so a span's self time is its
// duration minus its children's durations: the share of the request
// that the layer itself adds.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Request int    `json:"request_id"`
}

// recorder keeps spans in memory; a traced run writes them out at exit.
// Requests run sequentially in one goroutine, so it needs no lock.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// add records a call that ran from start to end.
func (t *recorder) add(name string, parent, req int, start, end time.Time) int {
	t.spans = append(t.spans, span{
		Name:    name,
		Start:   start.Sub(t.epoch).Nanoseconds(),
		End:     end.Sub(t.epoch).Nanoseconds(),
		Parent:  parent,
		Request: req,
	})
	return len(t.spans) - 1
}

// open starts a span that later spans can name as their parent; close
// ends it.
func (t *recorder) open(name string, parent, req int) int {
	now := time.Now()
	return t.add(name, parent, req, now, now)
}

func (t *recorder) close(i int) { t.spans[i].End = time.Since(t.epoch).Nanoseconds() }

// timed runs f as a span and returns the span's index and duration.
func (t *recorder) timed(name string, parent, req int, f func()) (int, time.Duration) {
	t0 := time.Now()
	f()
	t1 := time.Now()
	return t.add(name, parent, req, t0, t1), t1.Sub(t0)
}

// allocs measures f's heap allocations (count and bytes) from the
// runtime's cumulative counters when on; otherwise it only runs f
// (ReadMemStats stops the world, which a loaded pass must not pay). The
// two ReadMemStats calls sit outside any span, so they do not inflate
// the timings.
func allocs(on bool, f func()) (count, bytes float64) {
	if !on {
		f()
		return 0, 0
	}
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	f()
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs - a.Mallocs), float64(b.TotalAlloc - a.TotalAlloc)
}

// selfTimes returns each span's self time: its duration minus its
// children's.
func (t *recorder) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += time.Duration(s.End - s.Start)
		if s.Parent >= 0 {
			self[s.Parent] -= time.Duration(s.End - s.Start)
		}
	}
	return self
}

// printTable prints the per-layer self-time table: for every span name,
// the span count and the median total and self time.
func (t *recorder) printTable(w io.Writer, workload string) {
	self := t.selfTimes()
	total := make(map[string][]float64)
	selfBy := make(map[string][]float64)
	var order []string
	for i, s := range t.spans {
		if _, ok := total[s.Name]; !ok {
			order = append(order, s.Name)
		}
		total[s.Name] = append(total[s.Name], ms(time.Duration(s.End-s.Start)))
		selfBy[s.Name] = append(selfBy[s.Name], ms(self[i]))
	}
	sort.Strings(order)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "# %s layer\tspans\tmedian ms\tmedian self ms\n", workload)
	for _, name := range order {
		fmt.Fprintf(tw, "# %s\t%d\t%.4f\t%.4f\n", name, len(total[name]), median(total[name]), median(selfBy[name]))
	}
	_ = tw.Flush()
}

// writeFile writes every span as JSON.
func (t *recorder) writeFile(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// servedState is the node's own current graph, cached vicinity index
// and engine pool for graphName — the data its handler runs the library
// on. Library-level replays use it, so every layer of a traced request
// runs on the same memory and sees the same CPU-cache state; output
// checks use the benchmark's independent copy instead.
func servedState(srv *server.Server, graphName string, h int, importance bool) (libState, error) {
	e, ok := srv.Registry().Get(graphName)
	if !ok {
		return libState{}, fmt.Errorf("graph %q is not registered", graphName)
	}
	snap := e.Snapshot()
	lib := libState{g: snap.Graph, engines: e.EnginePool(snap), pool: graph.NewEnginePool(snap.Graph.Internal())}
	if importance {
		for _, idx := range srv.Cache().IndexesFor(e, snap.GraphVersion) {
			if idx.MaxLevel() >= h {
				lib.idx = idx
				break
			}
		}
		if lib.idx == nil {
			return lib, fmt.Errorf("no cached level-%d index for graph %q at version %d", h, graphName, snap.GraphVersion)
		}
	}
	return lib, nil
}

// chain is the stack a correlate request is replayed through, outside
// in: the endpoint users call, the owning node directly (when the
// endpoint is a coordinator), and the node's handler in-process.
type chain struct {
	front   *client.Client
	node    *client.Client // nil when front is the node itself
	handler http.Handler
	graph   string
}

// traceCorrelate sends one request through every layer of c in turn —
// front, node, handler on a recorder, tesc.Correlation, then the
// library's leaves one by one — recording a span per call, and returns
// the request's per-layer metrics. Every layer must return the same
// statistics bit for bit, and the verdict must be the planted one.
func traceCorrelate(r *run, t *recorder, reqID int, c chain, lib libState, req api.CorrelateRequest, va, vb []int, withAllocs bool) (map[string]float64, error) {
	out := make(map[string]float64)
	var answers []api.CorrelateResponse
	var err error

	var front api.CorrelateResponse
	root, dFront := t.timed("client.request", -1, reqID, func() { front, err = c.front.Correlate(r.ctx, c.graph, req) })
	if err != nil {
		return nil, fmt.Errorf("front request: %w", err)
	}
	answers = append(answers, front)
	nodeSpan, dNode := root, dFront
	if c.node != nil {
		var direct api.CorrelateResponse
		nodeSpan, dNode = t.timed("node.request", root, reqID, func() { direct, err = c.node.Correlate(r.ctx, c.graph, req) })
		if err != nil {
			return nil, fmt.Errorf("node request: %w", err)
		}
		answers = append(answers, direct)
		out["cluster.proxy_ms"] = ms(dFront - dNode)
	}

	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	rec := httptest.NewRecorder()
	serve, dServe := t.timed("server.serve", nodeSpan, reqID, func() {
		c.handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/graphs/"+c.graph+"/correlate", bytes.NewReader(body)))
	})
	var served api.CorrelateResponse
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("handler answered %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &served); err != nil {
		return nil, fmt.Errorf("decoding handler response: %w", err)
	}
	answers = append(answers, served)

	var res tesc.Result
	var libSpan int
	var dLib time.Duration
	out["tesc.correlation_allocs"], out["tesc.correlation_bytes"] = allocs(withAllocs, func() {
		libSpan, dLib = t.timed("tesc.correlation", serve, reqID, func() { res, err = tesc.Correlation(lib.g, va, vb, lib.options(req)) })
	})
	if err != nil {
		return nil, fmt.Errorf("library call: %w", err)
	}

	// tesc.Correlation turns the occurrence lists into sets itself.
	newProblem := func() (*core.Problem, error) {
		n := lib.g.NumNodes()
		return core.NewProblem(lib.g.Internal(), nodeSet(n, va), nodeSet(n, vb))
	}
	lv, err := replayLeaves(t, libSpan, reqID, lib, req, newProblem, withAllocs, out)
	if err != nil {
		return nil, err
	}
	for i, a := range answers {
		if !sameAnswer(a, res.Tau, res.Z, res.P) {
			return nil, fmt.Errorf("layer %d answered tau=%v p=%v, library tau=%v p=%v", i, a.Tau, a.P, res.Tau, res.P)
		}
	}
	if lv.tau != res.Tau || lv.z != res.Z || lv.p != res.P {
		return nil, fmt.Errorf("replayed leaves give tau=%v z=%v p=%v, library tau=%v z=%v p=%v", lv.tau, lv.z, lv.p, res.Tau, res.Z, res.P)
	}
	if front.Verdict != "positive" {
		return nil, fmt.Errorf("verdict %q for a planted positive pair", front.Verdict)
	}

	out["client.request_ms"] = ms(dFront)
	out["http.roundtrip_ms"] = ms(dNode - dServe)
	out["server.handler_ms"] = ms(dServe - dLib)
	out["tesc.correlation_ms"] = ms(dLib)
	out["trace.leaf_residual"] = float64(dLib-lv.sum) / float64(dLib)
	return out, nil
}

// leafResult is the outcome of a leaf-by-leaf replay.
type leafResult struct {
	tau, z, p float64
	sum       time.Duration
}

// replayLeaves re-runs what the library does for one test, one leaf at
// a time and with the same inputs, engines, index and seed: build the
// problem (newProblem, the way the caller being replayed builds it),
// sample reference nodes, evaluate densities, Kendall's τ (or the
// weighted t̃), and the p-value. It writes the leaves' timings,
// traversal counts and (withAllocs) allocations into out.
func replayLeaves(t *recorder, parent, reqID int, lib libState, req api.CorrelateRequest, newProblem func() (*core.Problem, error), withAllocs bool, out map[string]float64) (leafResult, error) {
	var lr leafResult
	var err error

	var prob *core.Problem
	var dProblem time.Duration
	out["core.problem_allocs"], out["core.problem_bytes"] = allocs(withAllocs, func() {
		_, dProblem = t.timed("core.problem", parent, reqID, func() { prob, err = newProblem() })
	})
	if err != nil {
		return lr, fmt.Errorf("problem: %w", err)
	}

	rng := rand.New(rand.NewPCG(req.Seed, req.Seed^0x9e3779b97f4a7c15))
	var sampler core.Sampler = &core.BatchBFSSampler{Engines: lib.pool}
	if lib.idx != nil {
		sampler = &core.ImportanceSampler{Index: lib.idx.Internal()}
	}
	var sample core.RefSample
	_, dSample := t.timed("core.sample", parent, reqID, func() { sample, err = sampler.SampleReferences(prob, req.H, 900, rng) })
	if err != nil {
		return lr, fmt.Errorf("sample: %w", err)
	}

	var sa, sb []float64
	var ds []core.Density
	var densityBFS int64
	var dDensity time.Duration
	out["core.density_allocs"], out["core.density_bytes"] = allocs(withAllocs, func() {
		_, dDensity = t.timed("core.density", parent, reqID, func() {
			bfs := lib.pool.Get()
			ev := core.NewDensityEvaluatorBFS(prob, req.H, bfs)
			ev.Engines = lib.pool
			sa, sb, ds = ev.EvalAll(sample.Nodes)
			lib.pool.Put(bfs)
			densityBFS = ev.BFSCount
		})
	})

	_, dKendall := t.timed("stats.kendall", parent, reqID, func() {
		if !sample.Weighted() {
			k := stats.KendallAuto(sa, sb)
			lr.tau, lr.z = k.Tau, k.Z
			return
		}
		omega := make([]float64, len(sample.Nodes))
		for i := range omega {
			if ds[i].CountUnion < 1 {
				err = fmt.Errorf("sampled out-of-sight node %d", sample.Nodes[i])
				return
			}
			omega[i] = float64(sample.Freq[i]) / float64(ds[i].CountUnion)
		}
		lr.tau = stats.WeightedTau(sa, sb, omega).Tau
	})
	if err != nil {
		return lr, err
	}
	_, dPValue := t.timed("stats.pvalue", parent, reqID, func() {
		if sample.Weighted() {
			varNum := stats.NumeratorVariance(len(sa), stats.TieSizes(sa), stats.TieSizes(sb))
			lr.z = 0
			if varNum > 0 {
				n0 := float64(len(sa)) * float64(len(sa)-1) / 2
				lr.z = stats.ZFromNumerator(lr.tau*n0, varNum)
			}
		}
		lr.p = stats.PValueZ(lr.z, stats.Greater)
	})

	out["core.problem_ms"] = ms(dProblem)
	out["core.sample_ms"] = ms(dSample)
	out["core.density_ms"] = ms(dDensity)
	out["stats.kendall_ms"] = ms(dKendall)
	out["stats.pvalue_ms"] = ms(dPValue)
	out["core.sampler_bfs"] = float64(sample.Stats.BFSCount)
	out["core.density_bfs"] = float64(densityBFS)
	lr.sum = dProblem + dSample + dDensity + dKendall + dPValue
	return lr, nil
}

func nodeSet(n int, vs []int) *graph.NodeSet {
	ids := make([]graph.NodeID, len(vs))
	for i, v := range vs {
		ids[i] = graph.NodeID(v)
	}
	return graph.NewNodeSet(n, ids)
}

// layerSamples accumulates per-request layer metrics; medians go out.
type layerSamples map[string][]float64

func (s layerSamples) add(m map[string]float64) {
	for k, v := range m {
		s[k] = append(s[k], v)
	}
}

// report sets every accumulated layer metric to its median.
func (s layerSamples) report(r *run) {
	for k, vs := range s {
		r.set(k, median(vs))
	}
}

// traceLoop replays requests through c, one at a time in this
// goroutine, until the deadline, while beside runs a closed loop on the
// workload's other connection — the load the untraced measurement ran
// under, so the traced requests see the same node. Each traced request
// follows an untraced one on the same path, so it finds the path as
// warm as back-to-back requests keep it rather than cooled by the
// replays below it. It then reports the per-layer medians, allocation
// counts from a quiet pass (quietAllocs), and the tracing overhead
// against the untraced p50.
func traceLoop(r *run, w *correlateWorld, c chain, lib libState, deadline time.Time, untracedP50 float64, beside func(i int) error) {
	var bg loadResult
	done := make(chan struct{})
	go func() {
		defer close(done)
		bg = closedLoop(realClock{}, 1, deadline, beside)
	}()
	layers := make(layerSamples)
	for i := 0; time.Now().Before(deadline); i++ {
		k := i % len(w.names)
		r.attempted++
		if resp, err := c.front.Correlate(r.ctx, c.graph, w.request(k)); err != nil || resp.Verdict != "positive" {
			r.fail("warm-up request %d: verdict %q, err %v", i, resp.Verdict, err)
			continue
		}
		r.attempted++
		m, err := traceCorrelate(r, r.spans, i, c, lib, w.request(k), w.va[k], w.vb[k], false)
		if err != nil {
			r.fail("traced request %d: %v", i, err)
			continue
		}
		layers.add(m)
	}
	<-done
	r.count(bg)
	quietAllocs(r, w, c, lib, layers)
	layers.report(r)
	r.set("trace.overhead", median(layers["client.request_ms"])/untracedP50-1)
}

// allocKeys are the per-layer metrics only a quiet process can measure:
// runtime.MemStats counts every goroutine's allocations.
var allocKeys = []string{
	"tesc.correlation_allocs", "tesc.correlation_bytes",
	"core.problem_allocs", "core.problem_bytes",
	"core.density_allocs", "core.density_bytes",
}

// quietAllocs traces eight more requests with nothing else running and
// sets layers' allocation counts from them.
func quietAllocs(r *run, w *correlateWorld, c chain, lib libState, layers layerSamples) {
	scratch := newRecorder() // these spans would skew the timing table
	for _, key := range allocKeys {
		layers[key] = nil
	}
	for i := 0; i < 8; i++ {
		k := i % len(w.names)
		r.attempted++
		m, err := traceCorrelate(r, scratch, i, c, lib, w.request(k), w.va[k], w.vb[k], true)
		if err != nil {
			r.fail("quiet traced request %d: %v", i, err)
			continue
		}
		for _, key := range allocKeys {
			layers[key] = append(layers[key], m[key])
		}
	}
}
