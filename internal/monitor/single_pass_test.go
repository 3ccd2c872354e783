package monitor

import (
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// TestRefreshRecordsItsBoundEpoch: a mutation that publishes while a
// refresh runs does not void the refresh. The refresh records the
// epoch it bound, bit-identical to a from-scratch screen there; the
// mutation's delta stays pending, and the next refresh records the
// newer epoch.
func TestRefreshRecordsItsBoundEpoch(t *testing.T) {
	mgr, w, rng := testWorld(t, 21)
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	mutate := false
	snap := func() (*graph.Graph, *events.Store, uint64, *graph.EnginePool) {
		g, store, epoch, engines := w.snap()
		if mutate {
			// The snapshot is bound; a 3-flip batch publishes beside it.
			mutate = false
			w.applyEdges(t, stream.Take(3))
		}
		return g, store, epoch, engines
	}
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 2, SampleSize: 60, Seed: 8, Mode: Manual}, snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	def := m.Def()
	w.applyEdges(t, stream.Take(2))
	bound := w.epoch
	want := fromScratch(t, w, def)

	mutate = true
	sample, ran, err := m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("refresh: ran=%v err=%v", ran, err)
	}
	if sample.Epoch != bound {
		t.Fatalf("recorded epoch %d, want the bound %d", sample.Epoch, bound)
	}
	if w.epoch != bound+1 {
		t.Fatalf("world at epoch %d, want %d: the mutation did not publish", w.epoch, bound+1)
	}
	assertSampleEquals(t, "bound epoch", sample, want)
	if got := m.Pending(); got != 1 {
		t.Fatalf("pending = %d after the refresh, want the mid-run batch", got)
	}

	sample, ran, err = m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("second refresh: ran=%v err=%v", ran, err)
	}
	if sample.Epoch != bound+1 || sample.Batches != 1 {
		t.Fatalf("second refresh recorded epoch %d with %d batches, want %d with 1", sample.Epoch, sample.Batches, bound+1)
	}
	assertSampleEquals(t, "next epoch", sample, fromScratch(t, w, def))
}

// TestPendingQueueFolds: a manual monitor nobody refreshes keeps a
// bounded queue. Each notification folds the queued entries into one,
// which still counts every batch and still leaves the next refresh
// exact.
func TestPendingQueueFolds(t *testing.T) {
	mgr, w, rng := testWorld(t, 22)
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 2, SampleSize: 60, Seed: 9, Mode: Manual}, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	def := m.Def()
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	const batches = 300
	for range batches {
		w.applyEdges(t, stream.Take(2))
	}
	m.mu.Lock()
	queued := len(m.pending)
	m.mu.Unlock()
	if queued > 2 {
		t.Fatalf("%d queued entries after %d batches, want at most 2", queued, batches)
	}
	if got := m.Pending(); got != batches {
		t.Fatalf("pending = %d, want %d", got, batches)
	}
	sample, ran, err := m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("refresh: ran=%v err=%v", ran, err)
	}
	if sample.Batches != batches {
		t.Fatalf("refresh folded %d batches, want %d", sample.Batches, batches)
	}
	assertSampleEquals(t, "after the folded queue", sample, fromScratch(t, w, def))
}

// TestFoldBehindABoundSnapshot: the queue folds after a refresh bound
// its snapshot, so a batch that snapshot sees ends up in an entry at a
// newer epoch, which the refresh keeps queued. The next refresh counts
// it, and its memo, which followed every version, keeps it exact.
func TestFoldBehindABoundSnapshot(t *testing.T) {
	mgr, w, rng := testWorld(t, 23)
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	during := 0
	snap := func() (*graph.Graph, *events.Store, uint64, *graph.EnginePool) {
		g, store, epoch, engines := w.snap()
		for ; during > 0; during-- {
			w.applyEdges(t, stream.Take(2))
		}
		return g, store, epoch, engines
	}
	m, err := mgr.Create("g", Definition{A: "ev-a", B: "ev-b", H: 2, SampleSize: 120, Seed: 10, Mode: Manual}, snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	def := m.Def()
	w.applyEdges(t, stream.Take(4))
	bound := w.epoch
	want := fromScratch(t, w, def)

	const later = 40
	during = later
	sample, ran, err := m.Refresh(true)
	if err != nil || !ran {
		t.Fatalf("forced refresh: ran=%v err=%v", ran, err)
	}
	m.mu.Lock()
	queued := len(m.pending)
	m.mu.Unlock()
	if queued > 2 {
		t.Fatalf("queue of %d entries; the batches did not fold", queued)
	}
	if sample.Epoch != bound {
		t.Fatalf("recorded epoch %d, want the bound %d", sample.Epoch, bound)
	}
	assertSampleEquals(t, "bound epoch", sample, want)

	sample, ran, err = m.Refresh(false)
	if err != nil || !ran {
		t.Fatalf("refresh: ran=%v err=%v", ran, err)
	}
	if sample.Epoch != w.epoch || sample.Batches != later+1 {
		t.Fatalf("refresh recorded epoch %d with %d batches, want %d with %d", sample.Epoch, sample.Batches, w.epoch, later+1)
	}
	assertSampleEquals(t, "latest epoch", sample, fromScratch(t, w, def))
}
