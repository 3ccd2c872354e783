package monitor

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/screen"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// world is an evolving (graph, events, epoch) triple driven by the
// tests the way the serving tier drives a registry entry: mutations
// are serialized, each advances the world's density memos by its dirty
// set and notifies the manager before it publishes, every published
// state is internally consistent, and each graph version has one
// engine pool that re-screens borrow from. Monitors borrow the memos
// through lend, one per (vocabulary, h).
type world struct {
	name string
	mgr  *Manager

	mu      sync.Mutex // snap races the auto-mode timer goroutines
	g       *graph.Graph
	engines *graph.EnginePool
	builder *events.Builder
	store   *events.Store
	epoch   uint64
	memos   map[memoKey]*screen.SharedMemo
}

// memoKey names one of the world's memos: its vocabulary and level.
type memoKey struct {
	names string
	h     int
}

func newWorld(name string, mgr *Manager, g *graph.Graph) *world {
	b := events.NewBuilder(g.NumNodes())
	return &world{name: name, mgr: mgr, g: g, engines: graph.NewEnginePool(g), builder: b, store: b.Build(), epoch: 1,
		memos: make(map[memoKey]*screen.SharedMemo)}
}

func (w *world) snap() (*graph.Graph, *events.Store, uint64, *graph.EnginePool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.g, w.store, w.epoch, w.engines
}

// lend is the world's MemoFunc: the memo of the vocabulary at h, made
// on first use, pinned to epoch.
func (w *world) lend(names []string, h int, epoch uint64) (*screen.SharedMemo, func()) {
	w.mu.Lock()
	defer w.mu.Unlock()
	key := memoKey{strings.Join(names, "\x00"), h}
	memo := w.memos[key]
	if memo == nil {
		var err error
		if memo, err = screen.NewSharedMemo(w.g.NumNodes(), names); err != nil {
			return nil, func() {}
		}
		w.memos[key] = memo
	}
	if !memo.Pin(epoch) {
		return nil, func() {}
	}
	return memo, memo.Unpin
}

// advance moves every memo of the world to epoch to, dropping the
// dirty set dirty returns for the memo's level and vocabulary.
func (w *world) advance(to uint64, dirty func(h int, names []string) []graph.NodeID) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for key, memo := range w.memos {
		memo.Advance(to, dirty(key.h, memo.Names()), false)
	}
}

// advanceEdges advances the memos past an edge batch and notifies the
// manager: a memo's dirty set is surfaced when level covers its h, as
// an index repair's would be, and otherwise one DirtySet per level on
// the two versions' pools.
func (w *world) advanceEdges(t testing.TB, oldG, newG *graph.Graph, oldEngines, newEngines *graph.EnginePool, applied []graph.EdgeChange, to uint64, surfaced []graph.NodeID, level int) {
	t.Helper()
	byLevel := make(map[int][]graph.NodeID)
	w.advance(to, func(h int, _ []string) []graph.NodeID {
		if surfaced != nil && level >= h {
			return surfaced
		}
		if _, ok := byLevel[h]; !ok {
			d, err := vicinity.DirtySet(oldG, newG, applied, h, oldEngines, newEngines)
			if err != nil {
				t.Fatalf("dirty set: %v", err)
			}
			byLevel[h] = d
		}
		return byLevel[h]
	})
	w.mgr.Notify(w.name, nil, to)
}

// applyEdges mutates the graph by the flips, advancing the memos and
// notifying the manager before publication — the serving tier's
// ordering contract.
func (w *world) applyEdges(t *testing.T, changes []graph.EdgeChange) {
	t.Helper()
	w.mu.Lock()
	oldG, oldEngines, epoch := w.g, w.engines, w.epoch
	w.mu.Unlock()
	d := graph.NewDelta(oldG)
	applied, err := d.Apply(changes)
	if err != nil {
		t.Fatalf("apply edges: %v", err)
	}
	if len(applied) == 0 {
		return
	}
	newG := d.Compact()
	engines := graph.NewEnginePool(newG)
	w.advanceEdges(t, oldG, newG, oldEngines, engines, applied, epoch+1, nil, 0)
	w.mu.Lock()
	w.g, w.engines = newG, engines
	w.epoch++
	w.mu.Unlock()
}

// mutateEvent adds or removes one occurrence of the named event. The
// memos over the event drop the reverse h-ball around v.
func (w *world) mutateEvent(t *testing.T, name string, v graph.NodeID, add bool) {
	t.Helper()
	changed := map[string][]graph.NodeID{name: {v}}
	w.mu.Lock()
	g, epoch := w.g, w.epoch
	w.mu.Unlock()
	w.advance(epoch+1, func(h int, names []string) []graph.NodeID {
		if !slices.Contains(names, name) {
			return nil
		}
		return graph.NewBFS(g).Collect([]graph.NodeID{v}, h)
	})
	w.mgr.Notify(w.name, changed, epoch+1)
	w.mu.Lock()
	defer w.mu.Unlock()
	if add {
		w.builder.Add(name, v)
	} else if !w.builder.Remove(name, v) {
		t.Fatalf("removing absent occurrence %s@%d", name, v)
	}
	w.store = w.builder.Build()
	w.epoch++
}

func seedEvents(w *world, rng *rand.Rand, occurrences int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	n := w.g.NumNodes()
	for _, name := range []string{"ev-a", "ev-b"} {
		for i := 0; i < occurrences; i++ {
			w.builder.Add(name, graph.NodeID(rng.IntN(n)))
		}
	}
	w.store = w.builder.Build()
	w.epoch++
}

func diffGraph(rng *rand.Rand) *graph.Graph {
	return graphgen.WattsStrogatz(400, 2, 0.1, rng)
}

// fromScratch runs the exact sweep the monitor runs, with no retained
// state: a fresh screen.Run at the same epoch, same seed, same
// parameters.
func fromScratch(t *testing.T, w *world, def Definition) screen.PairResult {
	t.Helper()
	res, err := screen.Run(w.g, w.store, [][2]string{{def.A, def.B}}, screen.Config{
		H:           def.H,
		SampleSize:  def.SampleSize,
		Alpha:       def.Alpha,
		Alternative: def.Alternative,
		Seed:        def.Seed,
	})
	if err != nil {
		t.Fatalf("from-scratch run: %v", err)
	}
	return res.Pairs[0]
}

func assertSampleEquals(t *testing.T, ctx string, got Sample, want screen.PairResult) {
	t.Helper()
	// Bit-identical float comparison: the incremental path must not be
	// approximately right, it must be the same computation.
	if got.Tau != want.Tau || got.Z != want.Z || got.P != want.P || got.AdjP != want.AdjP ||
		got.Significant != want.Significant || got.Skipped != want.Skipped {
		t.Fatalf("%s: incremental re-screen diverged:\n got  tau=%v z=%v p=%v adjp=%v sig=%v skip=%q\n want tau=%v z=%v p=%v adjp=%v sig=%v skip=%q",
			ctx, got.Tau, got.Z, got.P, got.AdjP, got.Significant, got.Skipped,
			want.Tau, want.Z, want.P, want.AdjP, want.Significant, want.Skipped)
	}
}

// TestDifferentialIncrementalRescreen is the tentpole's correctness
// witness: over >= 1k seeded mutation batches (edge flips and event
// occurrence changes, h = 1..3), every
// incremental monitor re-screen — dirty-set invalidation plus cache
// reuse — is bit-identical to a from-scratch screen.Run bound to the
// same epoch.
func TestDifferentialIncrementalRescreen(t *testing.T) {
	type leg struct {
		h       int
		batches int
		seed    uint64
	}
	legs := []leg{
		{1, 360, 11},
		{2, 360, 12},
		{3, 360, 13},
	}
	var totalBatches, totalReused atomic.Int64
	for _, lg := range legs {
		lg := lg
		// Subtest names keep their directed=false prefix so their IDs
		// stay stable for tools that track them.
		t.Run(fmt.Sprintf("directed=false/h=%d", lg.h), func(t *testing.T) {
			t.Parallel()
			rng := rand.New(rand.NewPCG(lg.seed, lg.seed^0xabcdef))
			mgr := NewManager()
			w := newWorld("g", mgr, diffGraph(rng))
			seedEvents(w, rng, 40)
			def := Definition{
				A: "ev-a", B: "ev-b",
				H:           lg.h,
				SampleSize:  80,
				Alternative: stats.Greater,
				Seed:        0x5eed ^ lg.seed,
				Mode:        Manual, // the test drives re-screens itself
			}
			m, err := mgr.Create(w.name, def, w.snap, w.lend)
			if err != nil {
				t.Fatal(err)
			}
			def = m.Def() // normalized (alpha, history defaults)
			assertSampleEquals(t, "baseline", mustLast(t, m), fromScratch(t, w, def))

			stream := graphgen.NewFlipStream(w.g, 0.5, rng)
			for batch := 0; batch < lg.batches; batch++ {
				if rng.IntN(5) == 0 {
					// Event churn: add an occurrence, or remove one while
					// keeping the event alive.
					name := []string{"ev-a", "ev-b"}[rng.IntN(2)]
					occ := w.store.Occurrences(name)
					if rng.IntN(2) == 0 && len(occ) > 3 {
						w.mutateEvent(t, name, occ[rng.IntN(len(occ))], false)
					} else {
						w.mutateEvent(t, name, graph.NodeID(rng.IntN(w.g.NumNodes())), true)
					}
				} else {
					w.applyEdges(t, stream.Take(1+rng.IntN(4)))
				}
				sample, ran, err := m.Refresh(false)
				if err != nil {
					t.Fatalf("batch %d: %v", batch, err)
				}
				if !ran {
					t.Fatalf("batch %d: refresh did not run despite a pending delta", batch)
				}
				if sample.Epoch != w.epoch {
					t.Fatalf("batch %d: sample bound to epoch %d, world at %d", batch, sample.Epoch, w.epoch)
				}
				assertSampleEquals(t, fmt.Sprintf("batch %d (epoch %d)", batch, w.epoch), sample, fromScratch(t, w, def))
				totalReused.Add(sample.Reused)
			}
			totalBatches.Add(int64(lg.batches))
		})
	}
	t.Cleanup(func() {
		if got := totalBatches.Load(); got < 1000 {
			t.Errorf("differential coverage: %d mutation batches, want >= 1000", got)
		}
		if totalReused.Load() == 0 {
			t.Error("no density evaluations were ever reused; the incremental path never engaged")
		}
	})
}

func mustLast(t *testing.T, m *Monitor) Sample {
	t.Helper()
	s, ok := m.Last()
	if !ok {
		t.Fatal("monitor has no baseline sample")
	}
	return s
}

// TestDirtySetSuperset checks that advancing the memo by a surfaced
// dirty set from a deeper index level (a superset of the monitor-level
// ball) preserves bit-identity — the path the serving tier takes when
// an index repair already computed the ball.
func TestDirtySetSuperset(t *testing.T) {
	rng := rand.New(rand.NewPCG(77, 1))
	mgr := NewManager()
	w := newWorld("g", mgr, diffGraph(rng))
	seedEvents(w, rng, 30)
	def := Definition{A: "ev-a", B: "ev-b", H: 1, SampleSize: 60, Seed: 99, Mode: Manual}
	m, err := mgr.Create(w.name, def, w.snap, w.lend)
	if err != nil {
		t.Fatal(err)
	}
	def = m.Def()
	stream := graphgen.NewFlipStream(w.g, 0.5, rng)
	for batch := 0; batch < 60; batch++ {
		changes := stream.Take(2)
		d := graph.NewDelta(w.g)
		applied, err := d.Apply(changes)
		if err != nil {
			t.Fatal(err)
		}
		newG := d.Compact()
		// Surface a level-3 ball for an h=1 monitor: a strict superset.
		dirty, err := vicinity.DirtySet(w.g, newG, applied, 3, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		w.advanceEdges(t, w.g, newG, nil, nil, applied, w.epoch+1, dirty, 3)
		w.g = newG
		w.epoch++
		sample, _, err := m.Refresh(false)
		if err != nil {
			t.Fatal(err)
		}
		assertSampleEquals(t, fmt.Sprintf("batch %d", batch), sample, fromScratch(t, w, def))
	}
}
