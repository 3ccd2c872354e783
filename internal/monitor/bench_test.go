package monitor

import (
	"math/rand/v2"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/screen"
	"tesc/internal/vicinity"
)

// benchWorld builds the churn benchmark's shape at a bench-friendly
// scale: a sparse surrogate with the event pair clustered in a region,
// so random flips mostly land outside the reference sample — the
// locality the incremental path exploits. docs/MONITORING.md quotes
// the two benchmarks below at this 20k-node scale.
func benchWorld(b *testing.B, nodes int) (*Manager, *world, *graphgen.FlipStream, *rand.Rand) {
	b.Helper()
	rng := rand.New(rand.NewPCG(9, 9))
	g := graphgen.WattsStrogatz(nodes, 3, 0.1, rng)
	mgr := NewManager()
	w := newWorld("g", mgr, g)
	region := nodes / 10
	for _, name := range []string{"ev-a", "ev-b"} {
		for i := 0; i < 200; i++ {
			w.builder.Add(name, graph.NodeID(rng.IntN(region)))
		}
	}
	w.store = w.builder.Build()
	w.epoch++
	return mgr, w, graphgen.NewFlipStream(g, 0.5, rng), rng
}

func benchApply(b *testing.B, w *world, flips []graph.EdgeChange, h int) {
	b.Helper()
	d := graph.NewDelta(w.g)
	applied, err := d.Apply(flips)
	if err != nil {
		b.Fatal(err)
	}
	newG := d.Compact()
	dirty, err := vicinity.DirtySet(w.g, newG, applied, h, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	engines := graph.NewEnginePool(newG)
	w.advanceEdges(b, w.g, newG, w.engines, engines, applied, w.epoch+1, dirty, h)
	w.g, w.engines = newG, engines
	w.epoch++
}

// BenchmarkMonitorRescreen measures one incremental re-screen per
// mutation batch: dirty-set invalidation plus a cache-served sweep.
func BenchmarkMonitorRescreen(b *testing.B) {
	mgr, w, stream, _ := benchWorld(b, 20000)
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 2, SampleSize: 900, Seed: 3, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		b.Fatal(err)
	}
	var reused, recomputed int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		benchApply(b, w, stream.Take(2), 2)
		b.StartTimer()
		sample, ran, err := m.Refresh(false)
		if err != nil || !ran {
			b.Fatalf("refresh: ran=%v err=%v", ran, err)
		}
		reused += sample.Reused
		recomputed += sample.Recomputed
	}
	b.ReportMetric(float64(reused)/float64(b.N), "reused/op")
	b.ReportMetric(float64(recomputed)/float64(b.N), "recomputed/op")
}

// BenchmarkFullRescreen is the from-scratch comparator: the same
// standing pair re-screened with no retained state after each batch.
func BenchmarkFullRescreen(b *testing.B) {
	_, w, stream, _ := benchWorld(b, 20000)
	cfg := screen.Config{H: 2, SampleSize: 900, Seed: 3}
	pairs := [][2]string{{"ev-a", "ev-b"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		d := graph.NewDelta(w.g)
		if _, err := d.Apply(stream.Take(2)); err != nil {
			b.Fatal(err)
		}
		w.g = d.Compact()
		w.epoch++
		b.StartTimer()
		if _, err := screen.Run(w.g, w.store, pairs, cfg); err != nil {
			b.Fatal(err)
		}
	}
}
