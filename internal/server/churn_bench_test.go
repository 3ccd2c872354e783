package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"tesc"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/simulate"
)

// churnInputs is churn-rw's read shape at the server: the 100k-node
// coauthorship surrogate, 16 planted pairs of 1000 occurrences each at
// h = 2, and the graph's h = 2 vicinity index.
type churnInputs struct {
	g      *tesc.Graph
	idx    *tesc.VicinityIndex
	events map[string][]int
}

const churnPairs = 16

var churnInputs100k = sync.OnceValue(func() churnInputs {
	g := tesc.RandomCoauthorshipGraph(1, 11)
	idx, err := g.BuildVicinityIndex(2, 0)
	if err != nil {
		panic(err)
	}
	rng := rand.New(rand.NewPCG(11, 0x7e5cbe4c))
	events := make(map[string][]int)
	for k := range churnPairs {
		p, err := simulate.PositivePair(g.Internal(), simulate.Config{H: 2, Occurrences: 1000}, rng)
		if err != nil {
			panic(err)
		}
		events[fmt.Sprintf("pa-%d", k)] = nodeInts(p.Va)
		events[fmt.Sprintf("pb-%d", k)] = nodeInts(p.Vb)
	}
	return churnInputs{g, idx, events}
})

// churnRig is a server under churn-rw's read shape, shared by every
// run of BenchmarkChurnCorrelate100k so that each run continues the
// same churn from where the last one stopped.
type churnRig struct {
	s      *Server
	h      http.Handler
	stream *graphgen.FlipStream
	reads  int
	body   []byte
}

var churnRig100k = sync.OnceValue(func() *churnRig {
	in := churnInputs100k()
	s := New(Config{})
	e, err := s.Registry().Register("g", in.g)
	if err != nil {
		panic(err)
	}
	if err := s.applyEvents(e, in.events, nil, false); err != nil {
		panic(err)
	}
	s.cache.Put(e, e.Snapshot(), in.idx)
	r := &churnRig{s: s, h: s.Handler(), stream: graphgen.NewFlipStream(in.g.Internal(), 0.5, rand.New(rand.NewPCG(11, 0xf11b)))}
	for range churnWarmReads {
		if err := r.read(); err != nil {
			panic(err)
		}
	}
	return r
})

// churnWarmReads is how many reads the rig serves before the first
// timed one: about what churn-rw serves in its warm-up.
const churnWarmReads = 3000

// read serves the rig's next read: the next planted pair under a fresh
// seed, after a 10-flip edge batch when 36 reads have passed since the
// last one.
func (r *churnRig) read() error {
	r.reads++
	if r.reads%36 == 0 {
		if err := r.post("/v1/graphs/g/edges", flipBody(r.stream, 10)); err != nil {
			return err
		}
	}
	k := r.reads % churnPairs
	r.body = fmt.Appendf(r.body[:0], `{"a":"pa-%d","b":"pb-%d","h":2,"method":"importance","tail":"positive","seed":%d}`, k, k, r.reads)
	return r.post("/v1/graphs/g/correlate", r.body)
}

func (r *churnRig) post(path string, body any) error {
	buf, ok := body.([]byte)
	if !ok {
		var err error
		if buf, err = json.Marshal(body); err != nil {
			return err
		}
	}
	rec := httptest.NewRecorder()
	r.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(buf)))
	if rec.Code != http.StatusOK {
		return fmt.Errorf("%s: %d %s", path, rec.Code, rec.Body)
	}
	return nil
}

// BenchmarkChurnCorrelate100k is churn-rw's read at the server layer:
// h = 2 importance correlates of the 16 planted pairs in turn, each
// with a fresh seed, through Server.Handler(), with a 10-flip edge
// batch after every 36 reads, on a server that has already served
// churnWarmReads of them. ns/op and allocs/op include the batches,
// one per 36 reads; density_bfs/read is the density traversals a read
// runs on average.
func BenchmarkChurnCorrelate100k(b *testing.B) {
	r := churnRig100k()
	b.ReportAllocs()
	b.ResetTimer()
	bfs := r.s.bfsRuns.Load()
	for i := 0; i < b.N; i++ {
		if err := r.read(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(r.s.bfsRuns.Load()-bfs)/float64(b.N), "density_bfs/read")
}

func nodeInts(vs []graph.NodeID) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = int(v)
	}
	return out
}
