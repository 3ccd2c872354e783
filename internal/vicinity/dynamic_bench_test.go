package vicinity

import (
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// The serving-cost claim of the dynamic-graph subsystem: repairing the
// |V^h_v| index after a single edge flip via ApplyDelta must be orders
// of magnitude cheaper than the from-scratch Build a naive cache
// invalidation pays. Both benchmarks run on the 20k-node DBLP
// surrogate at h = 2 (the deepest level tescd serves by default).
//
//	go test ./internal/vicinity -bench 'Rebuild20k|SingleFlip20k' -benchtime 10x

var bench20k struct {
	once sync.Once
	g    *graph.Graph
}

func bench20kGraph() *graph.Graph {
	bench20k.once.Do(func() {
		rng := rand.New(rand.NewPCG(0xbe9c, 20))
		bench20k.g = graphgen.Coauthorship(graphgen.DefaultCoauthorship(0.2), rng)
	})
	return bench20k.g
}

func BenchmarkRebuild20k(b *testing.B) {
	g := bench20kGraph()
	b.ReportMetric(float64(g.NumNodes()), "nodes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(g, 2, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkApplyDeltaSingleFlip20k(b *testing.B) {
	g := bench20kGraph()
	idx, err := Build(g, 2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(0xf11b, 7))
	stream := graphgen.NewFlipStream(g, 0.5, rng)
	var recomputed int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.NewDelta(g)
		applied, err := d.Apply([]graph.EdgeChange{stream.Next()})
		if err != nil {
			b.Fatal(err)
		}
		g = d.Compact()
		dirty, err := idx.ApplyDeltaDirty(g, applied, Options{})
		if err != nil {
			b.Fatal(err)
		}
		recomputed += len(dirty)
	}
	b.ReportMetric(float64(recomputed)/float64(b.N), "entries/op")
}

// BenchmarkApplyDelta100k measures the index half of the edge-write
// path as tescd runs it per 10-flip batch: Clone the published index,
// then ApplyDeltaDirty the clone to the next graph, borrowing engines
// from the old version's pool (warm) and the new version's (made per
// batch, as tescd makes one per graph version, so B/op includes the
// engines that pool then hands the new version's queries). Staging and
// compacting the batch run outside the timer. The graph is the
// 100k-node coauthorship surrogate at h = 2.
//
//	go test ./internal/vicinity -run '^$' -bench ApplyDelta100k -benchmem
func BenchmarkApplyDelta100k(b *testing.B) {
	g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1.0), rand.New(rand.NewPCG(0xc0a7, 100)))
	idx, err := Build(g, 2, Options{})
	if err != nil {
		b.Fatal(err)
	}
	stream := graphgen.NewFlipStream(g, 0.5, rand.New(rand.NewPCG(0xf11b, 10)))
	engines := graph.NewEnginePool(g)
	var recomputed int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := graph.NewDelta(g)
		applied, err := d.Apply(stream.Take(10))
		if err != nil {
			b.Fatal(err)
		}
		next := d.Compact()
		nextEngines := graph.NewEnginePool(next)
		b.StartTimer()
		idx = idx.Clone()
		dirty, err := idx.ApplyDeltaDirty(next, applied, Options{Engines: nextEngines, OldEngines: engines})
		if err != nil {
			b.Fatal(err)
		}
		recomputed += len(dirty)
		g, engines = next, nextEngines
	}
	b.ReportMetric(float64(recomputed)/float64(b.N), "entries/op")
}
