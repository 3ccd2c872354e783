package graph

import (
	"math/rand/v2"
	"sync"
	"testing"
)

// benchGraph is a ~100k-node sparse random graph approximating the
// coauthorship surrogate's density (the graphgen package depends on
// this one, so the substrate is generated locally).
var benchGraph struct {
	once sync.Once
	g    *Graph
	srcs []NodeID
}

func benchGraphSetup(tb testing.TB) {
	benchGraph.once.Do(func() {
		const n = 100000
		rng := rand.New(rand.NewPCG(3, 33))
		b := NewBuilder(n)
		for i := 0; i < 4*n; i++ {
			u := NodeID(rng.IntN(n))
			span := 1 + rng.IntN(200) // mostly-local edges, like communities
			v := u + NodeID(rng.IntN(2*span)-span)
			if v < 0 || v >= n || v == u {
				v = NodeID(rng.IntN(n))
				if v == u {
					continue
				}
			}
			b.AddEdge(u, v)
		}
		g, err := b.Build()
		if err != nil {
			panic(err)
		}
		benchGraph.g = g
		benchGraph.srcs = make([]NodeID, 512)
		for i := range benchGraph.srcs {
			benchGraph.srcs[i] = NodeID(rng.IntN(n))
		}
	})
}

// BenchmarkCollect measures the flat closure-free traversal kernel:
// 512 two-hop collections per op.
func BenchmarkCollect(b *testing.B) {
	benchGraphSetup(b)
	bfs := NewBFS(benchGraph.g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range benchGraph.srcs {
			_ = bfs.Collect([]NodeID{s}, 2)
		}
	}
}

// BenchmarkEnginePool measures the pooled engine round-trip against the
// per-query allocation it replaces (one O(|V|) mark array each).
func BenchmarkEnginePool(b *testing.B) {
	benchGraphSetup(b)
	pool := NewEnginePool(benchGraph.g)
	pool.Put(pool.Get()) // warm
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := pool.Get()
		_ = e.Collect([]NodeID{benchGraph.srcs[i%len(benchGraph.srcs)]}, 1)
		pool.Put(e)
	}
}

// BenchmarkNewBFSPerQuery is what EnginePool replaces: allocating fresh
// traversal state per query.
func BenchmarkNewBFSPerQuery(b *testing.B) {
	benchGraphSetup(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := NewBFS(benchGraph.g)
		_ = e.Collect([]NodeID{benchGraph.srcs[i%len(benchGraph.srcs)]}, 1)
	}
}

// BenchmarkBuild100k builds the benchmark graph from its edges, each
// once and in ascending order, as a parsed edge list adds them.
func BenchmarkBuild100k(b *testing.B) {
	benchGraphSetup(b)
	bld := NewGrowingBuilder()
	benchGraph.g.ForEachEdge(func(u, v NodeID) bool { bld.AddEdge(u, v); return true })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bld.Build(); err != nil {
			b.Fatal(err)
		}
	}
}
