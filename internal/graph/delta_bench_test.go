package graph_test

import (
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// BenchmarkDeltaCompact100k measures the edge-write path one batch at a
// time, as tesc.Graph.ApplyEdgeChanges runs it: stage a 10-flip
// FlipStream batch on a fresh Delta over the current snapshot, then
// compact it into the next snapshot. The graph is the 100k-node
// coauthorship surrogate, so a batch touches ~20 of 100k rows.
func BenchmarkDeltaCompact100k(b *testing.B) {
	g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1.0), rand.New(rand.NewPCG(0xc0a7, 100)))
	stream := graphgen.NewFlipStream(g, 0.5, rand.New(rand.NewPCG(0xf11b, 10)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := graph.NewDelta(g)
		if _, err := d.Apply(stream.Take(10)); err != nil {
			b.Fatal(err)
		}
		g = d.Compact()
	}
}
