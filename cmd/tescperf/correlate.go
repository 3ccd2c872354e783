package main

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tesc"
	"tesc/api"
	"tesc/client"
	"tesc/internal/graph"
	"tesc/internal/server"
	"tesc/internal/simulate"
)

// correlateSpec sizes a correlate workload's inputs.
type correlateSpec struct {
	nodes  int // coauthorship surrogate size
	occ    int // occurrences per event
	h      int
	method string // "importance" | "batch-bfs"
}

// correlateWorld is a correlate workload's generated inputs: the graph,
// its edge-list text, and the planted pairs. Everything derives from the
// run seed; the server only ever sees the generated inputs.
type correlateWorld struct {
	spec   correlateSpec
	g      *tesc.Graph
	edges  string
	lib    libState // the benchmark's own copy, for output checks
	names  [][2]string
	va, vb [][]int
	events map[string][]int
	seeds  seedSource
}

func newCorrelateWorld(r *run, spec correlateSpec) (*correlateWorld, error) {
	spec.nodes = max(int(float64(spec.nodes)*r.scale), 1000)
	spec.occ = max(int(float64(spec.occ)*r.scale), 10)
	g := tesc.RandomCoauthorshipGraph(float64(spec.nodes)/100000, r.seed)
	edges, err := graphText(g)
	if err != nil {
		return nil, err
	}
	lib, err := newLibState(g, spec.h, spec.method == "importance")
	if err != nil {
		return nil, err
	}
	w := &correlateWorld{spec: spec, g: g, edges: edges, lib: lib, events: make(map[string][]int), seeds: seedSource{base: r.seed}}
	rng := rand.New(rand.NewPCG(r.seed, 0x7e5cbe4c))
	for k := 0; k < plantedPairs; k++ {
		va, vb, err := w.plant(rng)
		if err != nil {
			return nil, fmt.Errorf("planting pair %d: %w", k, err)
		}
		names := [2]string{fmt.Sprintf("pa-%d", k), fmt.Sprintf("pb-%d", k)}
		w.names = append(w.names, names)
		w.va, w.vb = append(w.va, va), append(w.vb, vb)
		w.events[names[0]], w.events[names[1]] = va, vb
	}
	return w, nil
}

// plant draws a planted-positive pair that the library itself finds
// positive. A small linked-pair sample occasionally plants no
// measurable attraction (at h=1 with 30 occurrences, τ can come out
// near 0), and a workload must not contain requests that fail by
// construction, so such draws are replaced before anything is sent.
func (w *correlateWorld) plant(rng *rand.Rand) ([]int, []int, error) {
	for attempt := 0; attempt < 20; attempt++ {
		p, err := simulate.PositivePair(w.g.Internal(), simulate.Config{H: w.spec.h, Occurrences: w.spec.occ}, rng)
		if err != nil {
			return nil, nil, err
		}
		va, vb := ints(p.Va), ints(p.Vb)
		positive := true
		for seed := uint64(1); seed <= 3 && positive; seed++ {
			req := api.CorrelateRequest{H: w.spec.h, Method: w.spec.method, Seed: seed}
			res, err := tesc.Correlation(w.g, va, vb, w.lib.options(req))
			positive = err == nil && res.Verdict == "positive"
		}
		if positive {
			return va, vb, nil
		}
	}
	return nil, nil, fmt.Errorf("no positive planted pair in 20 draws")
}

func ints(vs []graph.NodeID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}

// request is the correlate request for planted pair k under a fresh
// seed. Seeds are unique per request, so request coalescing never
// merges two timed requests.
func (w *correlateWorld) request(k int) api.CorrelateRequest {
	return api.CorrelateRequest{
		A: w.names[k][0], B: w.names[k][1],
		H: w.spec.h, Method: w.spec.method, Tail: "positive",
		Seed: w.seeds.next(),
	}
}

// seedSource hands out distinct request seeds (splitmix64 is a
// bijection, so distinct counters give distinct seeds).
type seedSource struct {
	base uint64
	n    atomic.Uint64
}

func (s *seedSource) next() uint64 { return splitmix64(s.base<<20 + s.n.Add(1)) }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// correlateRecord is one answered correlate request, kept for the
// output checks.
type correlateRecord struct {
	pair int
	req  api.CorrelateRequest
	resp api.CorrelateResponse
}

// sampledChecks is how many answered requests per workload are
// recomputed with the library.
const sampledChecks = 16

// recordLog keeps a uniform sample of the answered requests of
// concurrent senders (reservoir sampling): enough for the sampled output
// checks, without holding every response of a long run in memory —
// which would make peak RSS grow with throughput.
type recordLog struct {
	mu   sync.Mutex
	rng  *rand.Rand
	seen int
	recs []correlateRecord
}

func (l *recordLog) add(rec correlateRecord) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seen++
	if len(l.recs) < sampledChecks {
		l.recs = append(l.recs, rec)
		return
	}
	if l.rng == nil {
		l.rng = rand.New(rand.NewPCG(0x5a3b1e, 0))
	}
	if j := l.rng.IntN(l.seen); j < sampledChecks {
		l.recs[j] = rec
	}
}

// correlateOp returns a load operation sending planted pair i%pairs to
// cl: a transport or HTTP error fails the request, and so does any
// verdict other than the planted "positive".
func (w *correlateWorld) correlateOp(r *run, cl *client.Client, graphName string, log *recordLog) func(i int) error {
	return func(i int) error {
		k := i % len(w.names)
		req := w.request(k)
		resp, err := cl.Correlate(r.ctx, graphName, req)
		if err != nil {
			r.note(err)
			return err
		}
		log.add(correlateRecord{pair: k, req: req, resp: resp})
		if resp.Verdict != "positive" {
			err := fmt.Errorf("planted pair %d seed %d: verdict %q (tau %g, p %g)", k, req.Seed, resp.Verdict, resp.Tau, resp.P)
			r.note(err)
			return err
		}
		return nil
	}
}

// setup runs the set-up cycles against front: register the graph and
// its events, then the first successful correlate (which pays any index
// build).
func (w *correlateWorld) setup(r *run, front *client.Client, graphName string) (float64, error) {
	up := func() error {
		if err := registerGraph(r.ctx, front, graphName, w.edges, w.events); err != nil {
			return err
		}
		_, err := front.Correlate(r.ctx, graphName, w.request(0))
		return err
	}
	return setupCycles(up, func() error { return front.DeleteGraph(r.ctx, graphName) })
}

// libState is the benchmark's own copy of what the node serves — graph,
// vicinity index and engine pools — for library-level replays and
// output checks.
type libState struct {
	g       *tesc.Graph
	idx     *tesc.VicinityIndex // nil for batch-bfs
	engines *tesc.EnginePool
	pool    *graph.EnginePool
}

func newLibState(g *tesc.Graph, h int, importance bool) (libState, error) {
	lib := libState{g: g, engines: g.NewEnginePool(), pool: graph.NewEnginePool(g.Internal())}
	if importance {
		idx, err := g.BuildVicinityIndex(h, 0)
		if err != nil {
			return lib, err
		}
		lib.idx = idx
	}
	return lib, nil
}

// options are the tesc.Options a node derives from req.
func (lib libState) options(req api.CorrelateRequest) tesc.Options {
	opts := tesc.Options{H: req.H, Tail: tesc.PositiveTail, Seed: req.Seed, Engines: lib.engines}
	if req.Method == "importance" {
		opts.Method, opts.Index = tesc.Importance, lib.idx
	}
	return opts
}

// sameAnswer reports whether a response carries exactly (bit for bit)
// the library's statistics.
func sameAnswer(resp api.CorrelateResponse, tau, z, p float64) bool {
	return resp.Tau == tau && resp.Z == z && resp.P == p
}

// verifySampled recomputes the sampled answered requests with
// tesc.Correlation on the benchmark's own copy of the graph. libAt
// returns that copy at a response's epoch; the sample is visited in
// epoch order so a mutating workload can roll its copy forward.
func verifySampled(r *run, recs []correlateRecord, va, vb [][]int, libAt func(epoch uint64) (libState, error)) error {
	sort.Slice(recs, func(i, j int) bool { return recs[i].resp.Epoch < recs[j].resp.Epoch })
	for _, rec := range recs {
		lib, err := libAt(rec.resp.Epoch)
		if err != nil {
			return err
		}
		res, err := tesc.Correlation(lib.g, va[rec.pair], vb[rec.pair], lib.options(rec.req))
		if err != nil {
			r.fail("library replay of seed %d: %v", rec.req.Seed, err)
			continue
		}
		if !sameAnswer(rec.resp, res.Tau, res.Z, res.P) {
			r.fail("seed %d at epoch %d: served tau=%v z=%v p=%v, library tau=%v z=%v p=%v",
				rec.req.Seed, rec.resp.Epoch, rec.resp.Tau, rec.resp.Z, rec.resp.P, res.Tau, res.Z, res.P)
		}
	}
	return nil
}

// verify checks the sampled answers of a workload whose graph never
// changes.
func (w *correlateWorld) verify(r *run, recs []correlateRecord) {
	// The benchmark's copy is constant, so libAt cannot fail.
	_ = verifySampled(r, recs, w.va, w.vb, func(uint64) (libState, error) { return w.lib, nil })
}

// plantedPairs is how many planted pairs a correlate workload cycles
// through. A pair's cost depends on its events' neighbourhoods, so with
// few pairs the per-seed draw moves a run's latency; sixteen average it
// out.
const plantedPairs = 16

// runCorrelateCoord is correlate-h1-coord: cheap h=1 batch-bfs
// correlates on a 20k-node surrogate, two closed loops side by side —
// one connection through a one-member coordinator, one straight to the
// node. Compute is ~0.07 ms, so the HTTP hops, admission, JSON and the
// proxy dominate; the two loops share the same node and cores, so their
// difference is the coordinator hop.
//
// Latency is measured with both cores busy because on this kind of
// small VM an idle vCPU is what a lighter load mostly measures: open
// loops at a fixed rate and single-connection closed loops gave medians
// above the saturated loop's with three to five times its run-to-run
// spread.
func runCorrelateCoord(r *run) error {
	w, err := newCorrelateWorld(r, correlateSpec{nodes: 20000, occ: 30, h: 1, method: "batch-bfs"})
	if err != nil {
		return err
	}
	n, err := startNode(server.Config{})
	if err != nil {
		return err
	}
	defer n.close()
	co, err := startCoordinator(n.url)
	if err != nil {
		return err
	}
	defer co.close()
	tr := newTransport()
	defer tr.CloseIdleConnections()
	hc := &http.Client{Transport: tr}
	viaCoord := client.New(co.url, client.WithHTTPClient(hc))
	direct := client.New(n.url, client.WithHTTPClient(hc))
	const graphName = "perf"
	setup, err := w.setup(r, viaCoord, graphName)
	if err != nil {
		return err
	}
	r.set("setup_s", setup)

	half := r.seconds
	if r.trace {
		half /= 2
	}
	var coordRes, directRes loadResult
	var log recordLog
	r.measure(half, func(d time.Duration, timed bool) {
		l := &log
		if !timed {
			l = &recordLog{}
		}
		deadline := time.Now().Add(d)
		var c, o loadResult
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c = closedLoop(realClock{}, 1, deadline, w.correlateOp(r, viaCoord, graphName, l))
		}()
		go func() {
			defer wg.Done()
			o = closedLoop(realClock{}, 1, deadline, w.correlateOp(r, direct, graphName, l))
		}()
		wg.Wait()
		r.count(c)
		r.count(o)
		if timed {
			coordRes, directRes = c, o
		}
	})
	w.verify(r, log.recs)
	coordMS, directMS := msAll(coordRes.lat), msAll(directRes.lat)
	if r.trace {
		served, err := servedState(n.srv, graphName, w.spec.h, false)
		if err != nil {
			return err
		}
		c := chain{front: viaCoord, node: direct, handler: n.srv.Handler(), graph: graphName}
		traceLoop(r, w, c, served, time.Now().Add(r.seconds-half), median(coordMS), w.correlateOp(r, direct, graphName, &recordLog{}))
		return nil
	}
	r.set("p50_ms", typical(coordMS))
	r.set("tail_ms", tail(coordMS, 0.99))
	r.set("qps", coordRes.qps())
	r.set("aux_p50_ms", typical(directMS))
	return nil
}
