package snapshot_test

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tesc"
	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/screen"
	"tesc/internal/snapshot"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// randomGraph returns a seeded random graph.
func randomGraph(n int, m int64, seed uint64) *graph.Graph {
	rng := rand.New(rand.NewPCG(seed, seed^0xabcdef))
	return graphgen.ErdosRenyi(n, m, rng)
}

// randomStore plants a few events, one of them intensity-weighted.
func randomStore(t *testing.T, n int, seed uint64) *events.Store {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x5eed))
	b := events.NewBuilder(n)
	for e := 0; e < 5; e++ {
		name := fmt.Sprintf("ev-%d", e)
		occ := 5 + rng.IntN(n/4)
		for k := 0; k < occ; k++ {
			v := graph.NodeID(rng.IntN(n))
			if e == 0 {
				b.AddWeighted(name, v, 0.5+rng.Float64()*4)
			} else {
				b.Add(name, v)
			}
		}
	}
	// Advance the epoch past 1 so the round trip proves epochs are
	// preserved, not merely reinitialized.
	b.Build()
	b.Build()
	return b.Build()
}

// assertGraphEqual compares two graphs edge for edge.
func assertGraphEqual(t *testing.T, want, got *graph.Graph) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("graph shape: got (n=%d m=%d), want (n=%d m=%d)",
			got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < want.NumNodes(); v++ {
		if !reflect.DeepEqual(want.Neighbors(graph.NodeID(v)), got.Neighbors(graph.NodeID(v))) {
			t.Fatalf("adjacency of node %d differs: got %v, want %v", v, got.Neighbors(graph.NodeID(v)), want.Neighbors(graph.NodeID(v)))
		}
	}
}

// assertStoreEqual compares event memberships, intensities and epochs.
func assertStoreEqual(t *testing.T, want, got *events.Store) {
	t.Helper()
	if got.Epoch() != want.Epoch() {
		t.Fatalf("store epoch: got %d, want %d", got.Epoch(), want.Epoch())
	}
	if got.Universe() != want.Universe() {
		t.Fatalf("store universe: got %d, want %d", got.Universe(), want.Universe())
	}
	if !reflect.DeepEqual(got.Names(), want.Names()) {
		t.Fatalf("event names: got %v, want %v", got.Names(), want.Names())
	}
	for _, name := range want.Names() {
		if !reflect.DeepEqual(got.Occurrences(name), want.Occurrences(name)) {
			t.Fatalf("occurrences of %q differ: got %v, want %v", name, got.Occurrences(name), want.Occurrences(name))
		}
		for _, v := range want.Occurrences(name) {
			if got.Intensity(name, v) != want.Intensity(name, v) {
				t.Fatalf("intensity of %q on %d: got %g, want %g", name, v, got.Intensity(name, v), want.Intensity(name, v))
			}
		}
	}
}

// TestRoundTrip is the satellite property test: Load(Save(x)) is
// semantically identical to x for seeded random graphs with indexes at
// h = 1..3, events with intensities, and epoch stamps. Subtest names
// keep their directed=false prefix so their IDs stay stable for tools
// that track them.
func TestRoundTrip(t *testing.T) {
	for h := 1; h <= 3; h++ {
		t.Run(fmt.Sprintf("directed=false/h=%d", h), func(t *testing.T) {
			seed := uint64(100*h + 7)
			g := randomGraph(300, 900, seed)
			store := randomStore(t, g.NumNodes(), seed)
			idx, err := vicinity.Build(g, h, vicinity.Options{})
			if err != nil {
				t.Fatal(err)
			}
			in := &snapshot.Snapshot{
				Graph:        g,
				Store:        store,
				Indexes:      []*vicinity.Index{idx},
				Epoch:        42,
				GraphVersion: 17,
			}
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, in); err != nil {
				t.Fatal(err)
			}
			out, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if out.Epoch != 42 || out.GraphVersion != 17 {
				t.Fatalf("meta stamps: got epoch=%d gv=%d, want 42/17", out.Epoch, out.GraphVersion)
			}
			assertGraphEqual(t, g, out.Graph)
			assertStoreEqual(t, store, out.Store)
			if len(out.Indexes) != 1 {
				t.Fatalf("got %d indexes, want 1", len(out.Indexes))
			}
			lidx := out.Indexes[0]
			if lidx.MaxLevel() != h {
				t.Fatalf("index max level: got %d, want %d", lidx.MaxLevel(), h)
			}
			if lidx.Graph() != out.Graph {
				t.Fatal("loaded index not bound to the loaded graph")
			}
			all := make([]graph.NodeID, g.NumNodes())
			for v := range all {
				all[v] = graph.NodeID(v)
			}
			for lvl := 1; lvl <= h; lvl++ {
				got, want := lidx.Weights(all, lvl), idx.Weights(all, lvl)
				for v := range want {
					if got[v] != want[v] {
						t.Fatalf("|V^%d_%d|: got %v, want %v", lvl, v, got[v], want[v])
					}
				}
			}
		})
	}
}

// TestRoundTripQueries asserts a loaded snapshot answers queries
// bit-identically to the in-memory original under a fixed seed: the
// index-backed Correlation path (importance sampling through the
// persisted |V^h_v| index) and a full screen.Run sweep.
func TestRoundTripQueries(t *testing.T) {
	g := tesc.RandomCommunityGraph(5, 40, 6, 0.5, 42).Internal()
	store := randomStore(t, g.NumNodes(), 99)
	idx, err := vicinity.Build(g, 2, vicinity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Store: store, Indexes: []*vicinity.Index{idx}}); err != nil {
		t.Fatal(err)
	}
	loaded, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	va, vb := store.Occurrences("ev-1"), store.Occurrences("ev-2")
	toInts := func(ns []graph.NodeID) []int {
		out := make([]int, len(ns))
		for i, v := range ns {
			out[i] = int(v)
		}
		return out
	}
	correlate := func(g *graph.Graph, idx *vicinity.Index) tesc.Result {
		res, err := tesc.Correlation(tesc.FromInternal(g), toInts(va), toInts(vb), tesc.Options{
			H:      2,
			Method: tesc.Importance,
			Index:  tesc.VicinityIndexFromInternal(idx),
			Seed:   7,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fresh := correlate(g, idx)
	warm := correlate(loaded.Graph, loaded.Indexes[0])
	if !reflect.DeepEqual(fresh, warm) {
		t.Fatalf("correlation diverged across the round trip:\nfresh: %+v\nwarm:  %+v", fresh, warm)
	}

	// One worker: with several, which worker pays a shared memo node's
	// traversal (BFSRuns vs MemoHits) depends on scheduling, and the
	// whole Result is compared.
	cfg := screen.Config{H: 1, SampleSize: 200, Alternative: stats.TwoSided, Seed: 11, Workers: 1}
	freshScreen, err := screen.Run(g, store, screen.AllPairs(store, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	warmScreen, err := screen.Run(loaded.Graph, loaded.Store, screen.AllPairs(loaded.Store, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(freshScreen, warmScreen) {
		t.Fatalf("screen.Run diverged across the round trip:\nfresh: %+v\nwarm:  %+v", freshScreen, warmScreen)
	}
}

// TestRoundTripMinimal covers the degenerate corners: no events, no
// indexes, isolated nodes, and the empty graph.
func TestRoundTripMinimal(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"empty", graph.MustFromEdges(0, nil)},
		{"isolated", graph.MustFromEdges(5, [][2]graph.NodeID{{0, 1}})},
		{"path", graph.Path(10)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: tc.g}); err != nil {
				t.Fatal(err)
			}
			out, err := snapshot.Load(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			assertGraphEqual(t, tc.g, out.Graph)
			if out.Store != nil || len(out.Indexes) != 0 {
				t.Fatalf("unexpected store/indexes on minimal snapshot: %+v", out)
			}
			if out.Epoch != 1 || out.GraphVersion != 1 {
				t.Fatalf("default stamps: got %d/%d, want 1/1", out.Epoch, out.GraphVersion)
			}
		})
	}
}

// TestSaveRejectsMismatched ensures a snapshot whose parts disagree
// can never reach disk.
func TestSaveRejectsMismatched(t *testing.T) {
	g := graph.Path(10)
	other := graph.Path(10)
	idx, err := vicinity.Build(other, 1, vicinity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Indexes: []*vicinity.Index{idx}}); err == nil {
		t.Fatal("Save accepted an index bound to a different graph")
	}
	b := events.NewBuilder(99)
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Store: b.Build()}); err == nil {
		t.Fatal("Save accepted a store with a mismatched universe")
	}
	long := events.NewBuilder(10)
	long.Add(strings.Repeat("x", 70000), 1)
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Store: long.Build()}); err == nil {
		t.Fatal("Save accepted an event name beyond the u16 length field")
	}
	// Save and Load share the level cap: a writer must never produce a
	// file its own reader rejects.
	deep, err := vicinity.Build(g, snapshot.MaxVicinityLevels+1, vicinity.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Save(&buf, &snapshot.Snapshot{Graph: g, Indexes: []*vicinity.Index{deep}}); err == nil {
		t.Fatalf("Save accepted an index beyond the format's %d-level cap", snapshot.MaxVicinityLevels)
	}
}

// TestSaveFileAtomic exercises the temp-file + rename path and the
// file-level load.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.tescsnap")
	g := graph.Cycle(20)
	if _, err := snapshot.SaveFile(path, &snapshot.Snapshot{Graph: g, Epoch: 3, GraphVersion: 2}); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: rename must replace, not fail.
	if _, err := snapshot.SaveFile(path, &snapshot.Snapshot{Graph: g, Epoch: 4, GraphVersion: 2}); err != nil {
		t.Fatal(err)
	}
	out, err := snapshot.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if out.Epoch != 4 {
		t.Fatalf("epoch: got %d, want 4", out.Epoch)
	}
	assertGraphEqual(t, g, out.Graph)
	matches, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
	if err != nil || len(matches) != 0 {
		t.Fatalf("leftover temp files: %v (err %v)", matches, err)
	}
	info, err := snapshot.InspectFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Sections) != 2 { // META + GRPH
		t.Fatalf("sections: got %+v, want META+GRPH", info.Sections)
	}
}
