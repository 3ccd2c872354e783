package server

import (
	"reflect"
	"sync"
	"testing"

	"tesc"
	"tesc/internal/events"
)

// eventSetOf snapshots a store's events as the public screening input
// type, for comparing served results with tesc.Screen/ScreenTopK.
func eventSetOf(store *events.Store) tesc.EventSet {
	out := make(tesc.EventSet, store.NumEvents())
	for _, name := range store.Names() {
		occ := store.Occurrences(name)
		nodes := make([]int, len(occ))
		for i, v := range occ {
			nodes[i] = int(v)
		}
		out[name] = nodes
	}
	return out
}

// EventSet snapshots all registered events as the public screening
// input type.
func (e *GraphEntry) EventSet() tesc.EventSet { return eventSetOf(e.Snapshot().Store) }

// AddEvents records event occurrences (event name → node IDs). Node IDs
// outside the graph's range are rejected before anything is recorded.
// Repeated registrations of the same occurrence accumulate intensity,
// matching events.Builder semantics.
func (e *GraphEntry) AddEvents(ev map[string][]int) error {
	return e.mutateEvents(ev, nil, nil)
}

// RemoveEvents deletes event occurrences: each name maps to the node
// IDs to remove, an empty (or nil) list removing the whole event. The
// batch is validated against the current snapshot first and rejected
// whole on an unknown event or absent occurrence.
func (e *GraphEntry) RemoveEvents(ev map[string][]int) error {
	return e.mutateEvents(nil, ev, nil)
}

func TestRegistryRegisterGetRemove(t *testing.T) {
	g := testGraph(t)
	r := NewRegistry()
	if _, err := r.Register("", g); err == nil {
		t.Fatal("empty name must be rejected")
	}
	e, err := r.Register("a", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Register("a", g); err == nil {
		t.Fatal("duplicate registration must be rejected")
	}
	if _, err := r.Register("b", g); err != nil {
		t.Fatal(err)
	}
	if got := r.Names(); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Fatalf("Names() = %v", got)
	}
	if got, ok := r.Get("a"); !ok || got != e {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	removed, ok := r.Remove("a")
	if !ok || removed != e {
		t.Fatalf("Remove(a) = %v, %v; want the registered entry", removed, ok)
	}
	if _, ok := r.Remove("a"); ok {
		t.Fatal("second Remove must report absence")
	}
}

func TestGraphEntryEvents(t *testing.T) {
	g := testGraph(t)
	r := NewRegistry()
	e, err := r.Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := storeOccurrences(e.Snapshot().Store, "x"); err == nil {
		t.Fatal("unknown event must error")
	}
	if err := e.AddEvents(map[string][]int{"x": {0, 99}}); err == nil {
		t.Fatal("out-of-range node must be rejected")
	}
	if e.Snapshot().Store.NumEvents() != 0 {
		t.Fatal("rejected batch must not be partially applied")
	}
	if err := e.AddEvents(map[string][]int{"x": {2, 0}, "y": {1}}); err != nil {
		t.Fatal(err)
	}
	// A second batch accumulates instead of replacing.
	if err := e.AddEvents(map[string][]int{"x": {4}}); err != nil {
		t.Fatal(err)
	}
	occ, err := storeOccurrences(e.Snapshot().Store, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(occ, []int{0, 2, 4}) {
		t.Fatalf("Occurrences(x) = %v, want [0 2 4]", occ)
	}
	want := map[string][]int{"x": {0, 2, 4}, "y": {1}}
	got := map[string][]int(nil)
	if es := e.EventSet(); len(es) == 2 {
		got = map[string][]int{"x": es["x"], "y": es["y"]}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("EventSet() = %v, want %v", got, want)
	}
}

// TestGraphEntryAddStore verifies that replaying a parsed event store
// preserves per-occurrence intensities (the -load-events path).
func TestGraphEntryAddStore(t *testing.T) {
	g := testGraph(t)
	r := NewRegistry()
	e, err := r.Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	b := events.NewBuilder(g.NumNodes())
	b.AddWeighted("kw", 0, 3.5)
	b.Add("kw", 2)
	if err := e.AddStore(b.Build()); err != nil {
		t.Fatal(err)
	}
	if got := e.Snapshot().Store.Intensity("kw", 0); got != 3.5 {
		t.Fatalf("Intensity(kw, 0) = %g, want 3.5 (weights must survive preload)", got)
	}
	wrong := events.NewBuilder(g.NumNodes() + 1)
	if err := e.AddStore(wrong.Build()); err == nil {
		t.Fatal("mismatched universe must be rejected")
	}
}

// TestGraphEntryConcurrentReadWrite exercises the snapshot semantics:
// readers always see a consistent frozen store while writers append.
func TestGraphEntryConcurrentReadWrite(t *testing.T) {
	g := testGraph(t)
	r := NewRegistry()
	e, err := r.Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddEvents(map[string][]int{"x": {0}, "y": {1}}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(node int) {
			defer wg.Done()
			if err := e.AddEvents(map[string][]int{"x": {node}}); err != nil {
				t.Error(err)
			}
		}(i + 1)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				if _, err := storeOccurrences(e.Snapshot().Store, "x"); err != nil {
					t.Error(err)
				}
				e.EventSet()
				e.Snapshot().Store.NumEvents()
			}
		}()
	}
	wg.Wait()
	occ, err := storeOccurrences(e.Snapshot().Store, "x")
	if err != nil {
		t.Fatal(err)
	}
	if len(occ) != 5 {
		t.Fatalf("after concurrent writes Occurrences(x) = %v, want 5 nodes", occ)
	}
}
