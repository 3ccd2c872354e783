package server

import (
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"weak"

	"tesc"
)

func testGraph(t *testing.T) *tesc.Graph {
	t.Helper()
	g, err := tesc.BuildGraph(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// testEntry registers a fresh graph under name and returns its entry.
func testEntry(t *testing.T, r *Registry, name string) *GraphEntry {
	t.Helper()
	e, err := r.Register(name, testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestCacheSingleFlight is the contention witness the service depends
// on: many concurrent queries for the same (graph, h) must trigger
// exactly one vicinity.Build.
func TestCacheSingleFlight(t *testing.T) {
	e := testEntry(t, NewRegistry(), "g")
	c := NewIndexCache(4)

	// Stall construction until every goroutine has called Get, so the
	// test provably overlaps all requests with the in-flight build.
	const goroutines = 32
	var entered sync.WaitGroup
	entered.Add(1) // released once all Gets are issued
	inner := c.build
	var concurrentCalls atomic.Int64
	c.build = func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error) {
		concurrentCalls.Add(1)
		entered.Wait()
		return inner(g, maxLevel, workers)
	}

	var issued sync.WaitGroup
	results := make([]*tesc.VicinityIndex, goroutines)
	errs := make([]error, goroutines)
	for i := 0; i < goroutines; i++ {
		issued.Add(1)
		go func(i int) {
			defer issued.Done()
			results[i], errs[i] = c.Get(e, e.Snapshot(), 2, 1)
		}(i)
	}
	// Let every goroutine either start the build or queue behind it,
	// then release. (The single builder is blocked in entered.Wait();
	// all others block on the ready channel.)
	for c.Len() == 0 {
		runtime.Gosched()
	}
	entered.Done()
	issued.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("Get %d: %v", i, errs[i])
		}
		if results[i] != results[0] {
			t.Fatalf("Get %d returned a different index instance", i)
		}
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("Builds() = %d, want exactly 1 under contention", got)
	}
	if got := concurrentCalls.Load(); got != 1 {
		t.Fatalf("build hook called %d times, want 1", got)
	}

	// A later Get for the same key is a pure cache hit.
	if _, err := c.Get(e, e.Snapshot(), 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("Builds() after warm hit = %d, want 1", got)
	}
	// A lower level is covered by the deeper cached index: no build.
	idx, err := c.Get(e, e.Snapshot(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if idx != results[0] {
		t.Fatal("level-1 query must reuse the cached level-2 index")
	}
	if got := c.Builds(); got != 1 {
		t.Fatalf("Builds() after lower-level reuse = %d, want 1", got)
	}
	// A deeper level than anything cached builds.
	if _, err := c.Get(e, e.Snapshot(), 3, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Builds(); got != 2 {
		t.Fatalf("Builds() after deeper level = %d, want 2", got)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	r := NewRegistry()
	a, b, x := testEntry(t, r, "a"), testEntry(t, r, "b"), testEntry(t, r, "x")
	c := NewIndexCache(2)
	mustGet := func(e *GraphEntry) {
		t.Helper()
		if _, err := c.Get(e, e.Snapshot(), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	mustGet(a) // keys: {a}
	mustGet(b) // keys: {a, b}
	mustGet(a) // touch a, so b is now LRU
	mustGet(x) // evicts b; keys: {a, x}
	if got := c.Builds(); got != 3 {
		t.Fatalf("Builds() = %d, want 3", got)
	}
	if got := c.Len(); got != 2 {
		t.Fatalf("Len() = %d, want 2", got)
	}
	mustGet(a) // still cached: no new build
	if got := c.Builds(); got != 3 {
		t.Fatalf("Builds() after touching a = %d, want 3 (a must not be evicted)", got)
	}
	mustGet(b) // was evicted: rebuilds
	if got := c.Builds(); got != 4 {
		t.Fatalf("Builds() after re-requesting b = %d, want 4 (b was evicted)", got)
	}
}

func TestCacheFailedBuildNotCached(t *testing.T) {
	e := testEntry(t, NewRegistry(), "g")
	c := NewIndexCache(4)
	inner := c.build
	fail := true
	boom := errors.New("boom")
	c.build = func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error) {
		if fail {
			return nil, boom
		}
		return inner(g, maxLevel, workers)
	}
	if _, err := c.Get(e, e.Snapshot(), 1, 1); !errors.Is(err, boom) {
		t.Fatalf("Get = %v, want boom", err)
	}
	if got := c.Len(); got != 0 {
		t.Fatalf("Len() after failed build = %d, want 0", got)
	}
	fail = false
	if _, err := c.Get(e, e.Snapshot(), 1, 1); err != nil {
		t.Fatalf("Get after recovery: %v", err)
	}
	if got := c.Builds(); got != 2 {
		t.Fatalf("Builds() = %d, want 2 (failure must not be cached)", got)
	}
}

func TestCacheEvictGraph(t *testing.T) {
	r := NewRegistry()
	a, b := testEntry(t, r, "a"), testEntry(t, r, "b")
	c := NewIndexCache(8)
	for _, e := range []*GraphEntry{a, b} {
		if _, err := c.Get(e, e.Snapshot(), 1, 1); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Get(e, e.Snapshot(), 2, 1); err != nil {
			t.Fatal(err)
		}
	}
	c.EvictGraph(a)
	if got := c.Len(); got != 2 {
		t.Fatalf("Len() after EvictGraph = %d, want 2 (only b's entries)", got)
	}
	if _, err := c.Get(b, b.Snapshot(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Builds(); got != 4 {
		t.Fatalf("Builds() = %d, want 4 (b still cached)", got)
	}
	if _, err := c.Get(a, a.Snapshot(), 1, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Builds(); got != 5 {
		t.Fatalf("Builds() = %d, want 5 (a was evicted)", got)
	}
}

// TestCacheNameReuseIsolation guards the delete/re-register race fix:
// an index cached for a deleted graph must never serve a new graph
// registered under the same name, because keys are entry pointers.
func TestCacheNameReuseIsolation(t *testing.T) {
	r := NewRegistry()
	old := testEntry(t, r, "g")
	c := NewIndexCache(4)
	oldIdx, err := c.Get(old, old.Snapshot(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.Remove("g"); !ok {
		t.Fatal("Remove failed")
	}
	// Simulate a stale in-flight insert: the old entry's index stays
	// cached (EvictGraph not called, worst case). Re-register "g".
	fresh := testEntry(t, r, "g")
	freshIdx, err := c.Get(fresh, fresh.Snapshot(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freshIdx == oldIdx {
		t.Fatal("new graph under a reused name was served the old graph's index")
	}
	if got := c.Builds(); got != 2 {
		t.Fatalf("Builds() = %d, want 2 (fresh entry must build its own index)", got)
	}
}

// mutateRefreshed applies one edge change to e with the cache's index
// migration as its refresh hook, as the server's mutation path does.
func mutateRefreshed(t *testing.T, c *IndexCache, e *GraphEntry, ch tesc.EdgeChange) Snapshot {
	t.Helper()
	next, applied, err := e.MutateEdges([]tesc.EdgeChange{ch},
		func(old, next Snapshot, ap []tesc.EdgeChange) error {
			c.Refresh(old, next, internalChanges(ap), 1)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(applied) != 1 {
		t.Fatalf("applied %d changes, want 1", len(applied))
	}
	return next
}

// TestCacheStaleSnapshotServesOwnIndex pins what a reader still bound
// to a superseded snapshot gets: its own version's index, built before
// the mutation, with no build — while the published version serves
// the repaired clone.
func TestCacheStaleSnapshotServesOwnIndex(t *testing.T) {
	e := testEntry(t, NewRegistry(), "g")
	c := NewIndexCache(4)
	before := e.Snapshot()
	own, err := c.Get(e, before, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := mutateRefreshed(t, c, e, tesc.EdgeChange{U: 0, V: 3, Insert: true})
	buildsBefore := c.Builds()

	stale, err := c.Get(e, before, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stale != own || !stale.BuiltFor(before.Graph) {
		t.Fatal("a superseded reader did not get its own version's index")
	}
	cur, err := c.Get(e, next, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if cur == own || !cur.BuiltFor(next.Graph) {
		t.Fatal("the published version did not serve its repaired index")
	}
	if got := c.Builds() - buildsBefore; got != 0 {
		t.Fatalf("reads on both sides of a refresh built %d indexes, want 0", got)
	}
}

// TestCacheStaleSnapshotSingleFlight pins the mutation-race path on a
// level the superseded version never had: its lagging readers share one
// build in that version's slot instead of a thundering herd of private
// rebuilds, and the build takes no place in the LRU, which counts only
// what the published version holds.
func TestCacheStaleSnapshotSingleFlight(t *testing.T) {
	e := testEntry(t, NewRegistry(), "g")
	c := NewIndexCache(4)
	before := e.Snapshot()
	if _, err := c.Get(e, before, 2, 1); err != nil {
		t.Fatal(err)
	}
	mutateRefreshed(t, c, e, tesc.EdgeChange{U: 0, V: 3, Insert: true})
	buildsBefore, lenBefore := c.Builds(), c.Len()

	// Stall the build until the version's slot holds it. A reader
	// arriving after the release finds the completed slot, so every
	// reader shares the one build however the scheduler orders them.
	const readers = 16
	inner := c.build
	var calls atomic.Int64
	release := make(chan struct{})
	c.build = func(g *tesc.Graph, maxLevel, workers int) (*tesc.VicinityIndex, error) {
		calls.Add(1)
		<-release
		return inner(g, maxLevel, workers)
	}
	var wg sync.WaitGroup
	results := make([]*tesc.VicinityIndex, readers)
	errs := make([]error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = c.Get(e, before, 3, 1)
		}(i)
	}
	slot := func() *indexSlot {
		c.mu.Lock()
		defer c.mu.Unlock()
		return before.state.indexes[3]
	}
	for calls.Load() == 0 {
		runtime.Gosched()
	}
	witness := slot()
	if witness == nil {
		t.Fatal("the stale build is not in its version's slot")
	}
	if got := c.Len(); got != lenBefore {
		t.Fatalf("an in-flight stale build changed Len() from %d to %d", lenBefore, got)
	}
	close(release)
	wg.Wait()

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("stale Get %d: %v", i, errs[i])
		}
		if !results[i].BuiltFor(before.Graph) {
			t.Fatalf("stale Get %d returned an index for the wrong snapshot", i)
		}
		if results[i] != witness.idx {
			t.Fatalf("stale Get %d did not share the single-flight build", i)
		}
	}
	if got := c.Builds() - buildsBefore; got != 1 {
		t.Fatalf("stale readers triggered %d builds, want 1", got)
	}
	if got := c.Len(); got != lenBefore {
		t.Fatalf("a stale build changed Len() from %d to %d", lenBefore, got)
	}

	// The published version still serves its refreshed index.
	if _, err := c.Get(e, e.Snapshot(), 2, 1); err != nil {
		t.Fatal(err)
	}
	if got := c.Builds() - buildsBefore; got != 1 {
		t.Fatalf("current-version Get rebuilt (total extra builds %d), want the refreshed index served", got)
	}
}

// TestRefreshEnginesServeSuccessor pins where an edge mutation's index
// repair borrows its engines: the pool the mutation path sees for the
// successor snapshot is the one that snapshot's queries get once it
// publishes, queries on the published snapshot keep its pool until
// then, and an aborted mutation leaves no pool behind.
func TestRefreshEnginesServeSuccessor(t *testing.T) {
	e := testEntry(t, NewRegistry(), "g")
	var during *tesc.EnginePool
	next, _, err := e.MutateEdges([]tesc.EdgeChange{{U: 0, V: 3, Insert: true}},
		func(old, next Snapshot, _ []tesc.EdgeChange) error {
			published := e.EnginePool(old)
			during = e.EnginePool(next)
			if during == published {
				t.Error("the successor snapshot shares the published one's pool")
			}
			if e.EnginePool(old) != published {
				t.Error("the successor's pool displaced the published snapshot's before publication")
			}
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.EnginePool(next); got != during {
		t.Fatal("the published successor did not keep the pool its repair used")
	}

	abort := errors.New("abort")
	var aborted *tesc.EnginePool
	if _, _, err := e.MutateEdges([]tesc.EdgeChange{{U: 1, V: 4, Insert: true}},
		func(_, next Snapshot, _ []tesc.EdgeChange) error {
			aborted = e.EnginePool(next)
			return abort
		}); !errors.Is(err, abort) {
		t.Fatalf("aborted mutation returned %v", err)
	}
	if got := e.EnginePool(e.Snapshot()); got != during {
		t.Fatal("an aborted mutation displaced the published pool")
	}
	retry, _, err := e.MutateEdges([]tesc.EdgeChange{{U: 1, V: 4, Insert: true}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.EnginePool(retry); got == aborted || got == during {
		t.Fatal("a mutation after an abort reused a stale pool")
	}
}

// TestDeadVersionsAreCollected pins that nothing the cache or the entry
// keeps pins a dead graph version: once the last holder of a superseded
// snapshot lets go, that version's index and engine pool are garbage,
// and an aborted mutation's version is garbage as soon as the mutation
// returns — even when its refresh hook had already migrated the indexes
// into it — while the published version's indexes stay as they were.
func TestDeadVersionsAreCollected(t *testing.T) {
	e := testEntry(t, NewRegistry(), "g")
	c := NewIndexCache(4)
	before := e.Snapshot()
	idx, err := c.Get(e, before, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	oldIdx, oldPool := weak.Make(idx), weak.Make(e.EnginePool(before))
	mutateRefreshed(t, c, e, tesc.EdgeChange{U: 0, V: 3, Insert: true})
	before, idx = Snapshot{}, nil
	runtime.GC()
	if oldIdx.Value() != nil || oldPool.Value() != nil {
		t.Fatal("a superseded version's index or pool outlived its last snapshot")
	}

	published := e.Snapshot()
	wantLen, want := c.Len(), c.IndexesFor(e, published.GraphVersion)
	if len(want) != 1 {
		t.Fatalf("published version holds %d indexes, want the migrated one", len(want))
	}
	abort := errors.New("abort")
	var aborted weak.Pointer[versionState]
	if _, _, err := e.MutateEdges([]tesc.EdgeChange{{U: 1, V: 4, Insert: true}},
		func(old, next Snapshot, applied []tesc.EdgeChange) error {
			c.Refresh(old, next, internalChanges(applied), 1)
			aborted = weak.Make(next.state)
			return abort
		}); !errors.Is(err, abort) {
		t.Fatalf("aborted mutation returned %v", err)
	}
	runtime.GC()
	if aborted.Value() != nil {
		t.Fatal("an aborted mutation's version outlived the mutation")
	}
	if got := c.Len(); got != wantLen {
		t.Fatalf("an aborted mutation changed Len() from %d to %d", wantLen, got)
	}
	if got := c.IndexesFor(e, published.GraphVersion); !slices.Equal(got, want) {
		t.Fatal("an aborted mutation changed the published version's indexes")
	}
}

// BenchmarkIndexCacheGet times the per-version lookup every importance
// correlate makes on the published snapshot: the vicinity-index cache
// hit plus the version's engine pool, from parallel readers.
func BenchmarkIndexCacheGet(b *testing.B) {
	e, err := NewRegistry().Register("g", tesc.RandomCommunityGraph(4, 50, 6, 0.5, 7))
	if err != nil {
		b.Fatal(err)
	}
	c := NewIndexCache(8)
	if _, err := c.Get(e, e.Snapshot(), 2, 1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			snap := e.Snapshot()
			if _, err := c.Get(e, snap, 2, 1); err != nil {
				b.Error(err)
				return
			}
			if e.EnginePool(snap) == nil {
				b.Error("no engine pool")
				return
			}
		}
	})
}
