package server

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net/http"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"tesc"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/wal"
)

// ---- schedule generation --------------------------------------------
//
// A recovery schedule is a deterministic mutation workload: a seeded
// starting graph plus a sequence of steps —
// edge batches, event batches, explicit checkpoints, index builds. The
// generator tracks a model of the event stores so every generated step
// is valid against the state produced by its prefix; the differential
// harness can then apply any prefix and know it succeeds.

type recStep struct {
	edges  []tesc.EdgeChange
	add    map[string][]int
	remove map[string][]int
	// checkpoint forces a synchronous durable checkpoint mid-schedule,
	// so recovery starts from a mid-workload snapshot + log tail.
	checkpoint bool
	// buildIndex forces a vicinity-index build at the current version,
	// so later edge steps exercise incremental index migration and the
	// next checkpoint persists the index.
	buildIndex bool
}

type recSchedule struct {
	seed  uint64
	h     int
	graph *tesc.Graph
	steps []recStep
	// torn, when non-zero, arms FaultFS.TornWrite: the crashing write
	// persists len*torn/4 bytes instead of none.
	torn int
}

var recEventNames = []string{"a", "b", "c"}

// genRecSchedule derives a full schedule from a seed.
func genRecSchedule(seed uint64) recSchedule {
	rng := rand.New(rand.NewPCG(seed, 0x7e5c))
	sc := recSchedule{
		seed: seed,
		h:    1 + int(seed%3),
	}
	if seed%3 == 0 {
		sc.torn = 1 + rng.IntN(3)
	}
	const n = 20
	sc.graph = tesc.RandomCommunityGraph(2, n/2, 3, 0.5, rng.Uint64())

	// Event model: name → occurrence multiset. Additions accumulate
	// intensity; a removal must name a present occurrence and, like
	// events.Builder.Remove, drops it whatever its intensity, so every
	// copy leaves the model.
	model := make(map[string][]int)
	steps := 8 + rng.IntN(5)
	for i := 0; i < steps; i++ {
		switch k := rng.IntN(10); {
		case k < 5: // edge batch
			var st recStep
			for c := 1 + rng.IntN(3); c > 0; c-- {
				u, v := rng.IntN(n), rng.IntN(n)
				if u == v {
					continue
				}
				st.edges = append(st.edges, tesc.EdgeChange{U: u, V: v, Insert: rng.IntN(2) == 0})
			}
			if len(st.edges) == 0 {
				continue
			}
			sc.steps = append(sc.steps, st)
		case k < 8: // event batch
			st := recStep{add: map[string][]int{}, remove: map[string][]int{}}
			for a := 1 + rng.IntN(4); a > 0; a-- {
				name := recEventNames[rng.IntN(len(recEventNames))]
				node := rng.IntN(n)
				st.add[name] = append(st.add[name], node)
				model[name] = append(model[name], node)
			}
			// Occasionally remove a present occurrence, or a whole event
			// — but never one being added in the same batch (the combined
			// mutation validates against the pre-batch store).
			if name := recEventNames[rng.IntN(len(recEventNames))]; len(model[name]) > 0 && len(st.add[name]) == 0 && rng.IntN(3) == 0 {
				if rng.IntN(4) == 0 {
					st.remove[name] = nil // whole event
					delete(model, name)
				} else {
					node := model[name][rng.IntN(len(model[name]))]
					st.remove[name] = []int{node}
					model[name] = slices.DeleteFunc(model[name], func(v int) bool { return v == node })
				}
			}
			if len(st.remove) == 0 {
				st.remove = nil
			}
			sc.steps = append(sc.steps, st)
		case k == 8:
			sc.steps = append(sc.steps, recStep{buildIndex: true})
		default:
			sc.steps = append(sc.steps, recStep{checkpoint: true})
		}
	}
	return sc
}

// ---- differential harness -------------------------------------------

// newFaultServer builds a persistent server over the given FaultFS
// with fsync=always and an effectively-infinite checkpoint debounce
// (only explicit checkpoint steps write snapshots, keeping the op
// budget deterministic).
func newFaultServer(fsys wal.FS) (*Server, error) {
	s := New(Config{
		IndexCacheCapacity: 4,
		DataDir:            "data",
		CheckpointDelay:    time.Hour,
		FsyncPolicy:        "always",
		FS:                 fsys,
	})
	_, err := s.LoadData()
	return s, err
}

// runSchedule applies the schedule to a fresh server over fsys,
// mimicking the HTTP handlers' durability protocol (durable ack on
// registration, log-before-publish on mutations). It returns the
// number of fully acknowledged steps and whether the registration
// itself was acknowledged; the first error (a crash, under fault
// injection) stops the run, exactly as an HTTP client would stop
// seeing 200s.
func runSchedule(sc recSchedule, srv *Server) (ackedSteps int, regAcked bool) {
	e, err := srv.registry.Register("g", sc.graph)
	if err != nil {
		return 0, false
	}
	if err := srv.durableAck("g"); err != nil {
		return 0, false
	}
	for i, st := range sc.steps {
		var err error
		switch {
		case st.checkpoint:
			_, err = srv.Checkpoint("g")
		case st.buildIndex:
			_, err = srv.cache.Get(e, e.Snapshot(), sc.h, 1)
		case st.edges != nil:
			_, err = srv.applyEdges(e, st.edges, true)
		default:
			err = srv.applyEvents(e, st.add, st.remove, true)
		}
		if err != nil {
			return i, true
		}
	}
	return len(sc.steps), true
}

// oracleServer replays the first acked steps of the schedule on a
// purely in-memory server — the uncrashed reference state recovery
// must reproduce bit-for-bit.
func oracleServer(t *testing.T, sc recSchedule, acked int) (*Server, *GraphEntry) {
	t.Helper()
	srv := New(Config{IndexCacheCapacity: 4})
	e, err := srv.registry.Register("g", sc.graph)
	if err != nil {
		t.Fatalf("oracle register: %v", err)
	}
	for i := 0; i < acked; i++ {
		st := sc.steps[i]
		var err error
		switch {
		case st.checkpoint, st.buildIndex:
			// No persistence in the oracle; index builds are deferred to
			// comparison time so the recovered server's migrated index is
			// checked against a from-scratch build.
		case st.edges != nil:
			_, err = srv.applyEdges(e, st.edges, true)
		default:
			err = srv.applyEvents(e, st.add, st.remove, true)
		}
		if err != nil {
			t.Fatalf("oracle step %d: %v", i, err)
		}
	}
	return srv, e
}

// storeFingerprint reduces an event store to a comparable value:
// sorted names, sorted occurrence lists, full intensity vectors.
func storeFingerprint(snap Snapshot) map[string]any {
	fp := make(map[string]any)
	names := append([]string(nil), snap.Store.Names()...)
	sort.Strings(names)
	for _, name := range names {
		occ := make([]int, 0, snap.Store.Count(name))
		for _, v := range snap.Store.Occurrences(name) {
			occ = append(occ, int(v))
		}
		sort.Ints(occ)
		fp[name] = struct {
			Occ       []int
			Intensity []float64
		}{occ, snap.Store.IntensityVector(name)}
	}
	return fp
}

// assertStateEqual compares the recovered entry against the oracle:
// epoch stamps, exact edge structure, event stores.
func assertStateEqual(t *testing.T, ctx string, rec, want Snapshot) {
	t.Helper()
	if rec.Epoch != want.Epoch || rec.GraphVersion != want.GraphVersion {
		t.Fatalf("%s: recovered (epoch %d, gv %d), want (epoch %d, gv %d)",
			ctx, rec.Epoch, rec.GraphVersion, want.Epoch, want.GraphVersion)
	}
	ri, wi := rec.Graph.Internal(), want.Graph.Internal()
	if ri.NumNodes() != wi.NumNodes() || ri.NumEdges() != wi.NumEdges() {
		t.Fatalf("%s: graph shape diverged: (%d,%d) vs (%d,%d)", ctx,
			ri.NumNodes(), ri.NumEdges(), wi.NumNodes(), wi.NumEdges())
	}
	if !reflect.DeepEqual(ri.Edges(), wi.Edges()) {
		t.Fatalf("%s: edge sets diverged", ctx)
	}
	if !reflect.DeepEqual(storeFingerprint(rec), storeFingerprint(want)) {
		t.Fatalf("%s: event stores diverged:\n  recovered %v\n  want      %v",
			ctx, storeFingerprint(rec), storeFingerprint(want))
	}
}

// assertQueriesEqual runs the expensive result-level comparisons: a
// full screening sweep and (when the schedule's events allow it) an
// importance-sampled correlate through each server's own vicinity
// index — the recovered side's index having been restored/migrated,
// the oracle's built from scratch.
func assertQueriesEqual(t *testing.T, ctx string, sc recSchedule, recS *Server, recE *GraphEntry, oraS *Server, oraE *GraphEntry) {
	t.Helper()
	recSnap, oraSnap := recE.Snapshot(), oraE.Snapshot()
	opts := tesc.ScreenOptions{H: sc.h, SampleSize: 60, Alpha: 0.05, MinOccurrences: 1, Workers: 1, Seed: 999}
	recRes, recErr := tesc.Screen(recSnap.Graph, eventSetOf(recSnap.Store), opts)
	oraRes, oraErr := tesc.Screen(oraSnap.Graph, eventSetOf(oraSnap.Store), opts)
	if (recErr == nil) != (oraErr == nil) {
		t.Fatalf("%s: screen error mismatch: recovered %v, oracle %v", ctx, recErr, oraErr)
	}
	if recErr == nil && !reflect.DeepEqual(recRes, oraRes) {
		t.Fatalf("%s: screen results diverged:\n  recovered %+v\n  oracle    %+v", ctx, recRes, oraRes)
	}
	va, vb := recSnap.Store.Occurrences("a"), recSnap.Store.Occurrences("b")
	if len(va) == 0 || len(vb) == 0 {
		return
	}
	corr := func(s *Server, e *GraphEntry, snap Snapshot) (tesc.Result, error) {
		idx, err := s.cache.Get(e, snap, sc.h, 1)
		if err != nil {
			t.Fatalf("%s: index: %v", ctx, err)
		}
		nodes := func(vs []graph.NodeID) []int {
			out := make([]int, len(vs))
			for i, v := range vs {
				out[i] = int(v)
			}
			return out
		}
		return tesc.Correlation(snap.Graph, nodes(snap.Store.Occurrences("a")), nodes(snap.Store.Occurrences("b")),
			tesc.Options{H: sc.h, SampleSize: 40, Method: tesc.Importance, Seed: 5, Index: idx})
	}
	recC, recCErr := corr(recS, recE, recSnap)
	oraC, oraCErr := corr(oraS, oraE, oraSnap)
	if (recCErr == nil) != (oraCErr == nil) {
		t.Fatalf("%s: correlate error mismatch: recovered %v, oracle %v", ctx, recCErr, oraCErr)
	}
	if recCErr == nil && !reflect.DeepEqual(recC, oraC) {
		t.Fatalf("%s: index-backed correlate diverged:\n  recovered %+v\n  oracle    %+v", ctx, recC, oraC)
	}
}

// crashAndRecover kills the live server, crashes the filesystem, and
// boots a fresh server on the surviving bytes.
func crashAndRecover(t *testing.T, ctx string, srv *Server, fsys *wal.FaultFS) *Server {
	t.Helper()
	srv.Kill()
	fsys.Crash()
	rec, err := newFaultServer(fsys)
	if err != nil {
		t.Fatalf("%s: recovery boot failed: %v", ctx, err)
	}
	return rec
}

// TestRecoveryCrashSweep is the differential property test: for
// hundreds of seeded mutation schedules — h 1..3, edge and event mutations, mid-schedule checkpoints
// and index builds, torn and clean crashing writes — it crashes the
// filesystem at EVERY operation the schedule performs, recovers, and
// asserts the recovered state is bit-identical to an uncrashed
// in-memory reference applying exactly the acknowledged prefix.
//
// Under fsync=always this is the WAL's central contract: an
// acknowledged mutation is never lost, an unacknowledged one is never
// half-applied.
func TestRecoveryCrashSweep(t *testing.T) {
	schedules := 500
	if testing.Short() {
		schedules = 60
	}
	for i := 0; i < schedules; i++ {
		sc := genRecSchedule(uint64(i))
		t.Run(fmt.Sprintf("seed=%d", i), func(t *testing.T) {
			t.Parallel()
			// Fault-free probe run: learns the op budget and pins the
			// no-crash end state against the oracle.
			probe := wal.NewFaultFS()
			srv, err := newFaultServer(probe)
			if err != nil {
				t.Fatal(err)
			}
			acked, reg := runSchedule(sc, srv)
			if !reg || acked != len(sc.steps) {
				t.Fatalf("fault-free run acked %d/%d steps (reg=%v)", acked, len(sc.steps), reg)
			}
			budget := probe.Steps()
			oraS, oraE := oracleServer(t, sc, acked)
			rec := crashAndRecover(t, "probe", srv, probe)
			e, ok := rec.registry.Get("g")
			if !ok {
				t.Fatal("probe: graph lost on clean recovery")
			}
			assertStateEqual(t, "probe", e.Snapshot(), oraE.Snapshot())
			assertQueriesEqual(t, "probe", sc, rec, e, oraS, oraE)

			for n := int64(0); n <= budget; n++ {
				ctx := fmt.Sprintf("crash@%d/%d", n, budget)
				fsys := wal.NewFaultFS()
				if sc.torn != 0 {
					frac := sc.torn
					fsys.TornWrite = func(size int) int { return size * frac / 4 }
				}
				fsys.SetCrashAfter(n)
				srv, err := newFaultServer(fsys)
				var acked int
				var reg bool
				if err == nil {
					acked, reg = runSchedule(sc, srv)
					rec := crashAndRecover(t, ctx, srv, fsys)
					checkRecovered(t, ctx, sc, rec, acked, reg)
				} else {
					// Crash during boot itself: nothing was ever served;
					// a second boot on the debris must still succeed.
					fsys.Crash()
					if _, err := newFaultServer(fsys); err != nil {
						t.Fatalf("%s: reboot after boot-crash failed: %v", ctx, err)
					}
				}
			}
		})
	}
}

// TestRecScheduleAppliesFaultFree pins the schedule generator's event
// model to the store: a removal drops a node's occurrence whatever its
// accumulated intensity. On each seed, a model that drops one copy per
// removal has emitted a second removal of a node added twice, which a
// fault-free server rejects.
func TestRecScheduleAppliesFaultFree(t *testing.T) {
	for _, seed := range []uint64{251, 9581, 12599, 14485, 16593, 16663, 19194} {
		sc := genRecSchedule(seed)
		srv, err := newFaultServer(wal.NewFaultFS())
		if err != nil {
			t.Fatal(err)
		}
		if acked, reg := runSchedule(sc, srv); !reg || acked != len(sc.steps) {
			t.Errorf("seed %d: fault-free run acked %d/%d steps (reg=%v)", seed, acked, len(sc.steps), reg)
		}
		srv.Kill()
	}
}

// TestShutdownFlushCrashSweep pins the graceful-shutdown ordering:
// Close flushes pending checkpoints, compacts the WAL segments those
// checkpoints cover, and only then closes the log. A crash at ANY
// point inside Close must leave every acknowledged mutation
// recoverable — the ordering bug this guards against is compaction (or
// log truncation) running before its covering checkpoint is durable,
// where a crash in the gap loses the only copy.
func TestShutdownFlushCrashSweep(t *testing.T) {
	sc := genRecSchedule(4) // no torn writes: keeps the op budget exact
	probe := wal.NewFaultFS()
	srv, err := newFaultServer(probe)
	if err != nil {
		t.Fatal(err)
	}
	if acked, reg := runSchedule(sc, srv); !reg || acked != len(sc.steps) {
		t.Fatalf("fault-free run acked %d/%d", acked, len(sc.steps))
	}
	mark := probe.Steps()
	srv.Close()
	budget := probe.Steps() - mark
	if budget < 5 {
		t.Fatalf("suspiciously few operations in Close: %d", budget)
	}
	_, oraE := oracleServer(t, sc, len(sc.steps))
	want := oraE.Snapshot()

	// After a CLEAN shutdown the flush covered every mutation and
	// compaction removed the covered segments: recovery replays nothing.
	rec, err := newFaultServer(probe)
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.walReplayed.Load(); got != 0 {
		t.Fatalf("clean shutdown left %d records to replay, want 0", got)
	}
	e, ok := rec.registry.Get("g")
	if !ok {
		t.Fatal("graph lost across clean shutdown")
	}
	assertStateEqual(t, "clean shutdown", e.Snapshot(), want)

	for n := int64(0); n <= budget; n++ {
		ctx := fmt.Sprintf("close-crash@%d/%d", n, budget)
		fsys := wal.NewFaultFS()
		srv, err := newFaultServer(fsys)
		if err != nil {
			t.Fatalf("%s: boot: %v", ctx, err)
		}
		if acked, reg := runSchedule(sc, srv); !reg || acked != len(sc.steps) {
			t.Fatalf("%s: schedule acked %d/%d", ctx, acked, len(sc.steps))
		}
		fsys.SetCrashAfter(n)
		srv.Close() // dies somewhere inside flush/compact/close
		fsys.Crash()
		rec, err := newFaultServer(fsys)
		if err != nil {
			t.Fatalf("%s: recovery boot: %v", ctx, err)
		}
		e, ok := rec.registry.Get("g")
		if !ok {
			t.Fatalf("%s: graph lost", ctx)
		}
		assertStateEqual(t, ctx, e.Snapshot(), want)
	}
}

// TestRestartAfterKillE2E is the end-to-end crash drill over the HTTP
// surface: a live server takes FlipStream edge batches with a standing
// monitor attached, checkpoints mid-stream, takes more batches, and is
// killed mid-debounce (dirty marks pending, nothing flushed). The
// restarted server must replay exactly the batches after the last
// checkpoint, resume the monitor's history at the pre-crash epoch, and
// serve a bit-identical screening sweep.
func TestRestartAfterKillE2E(t *testing.T) {
	const batches = 100
	fsys := wal.NewFaultFS()
	srv, err := newFaultServer(fsys)
	if err != nil {
		t.Fatal(err)
	}
	env := serve(srv)

	g := tesc.RandomCommunityGraph(4, 30, 5, 0.5, 77)
	var edges strings.Builder
	if err := g.WriteGraph(&edges); err != nil {
		t.Fatal(err)
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs",
		map[string]any{"name": "g", "edge_list": edges.String()}, nil)
	va, vb := make([]int, 0, 10), make([]int, 0, 10)
	for v := 0; v < 10; v++ {
		va = append(va, v)
		vb = append(vb, 90+v)
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"left": va, "right": vb}}, nil)
	var created struct {
		Last *monitorSampleView `json:"last"`
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"id": "m", "a": "left", "b": "right", "h": 1, "sample_size": 80, "seed": 3, "policy": "manual"}, &created)
	if created.Last == nil {
		t.Fatal("monitor created without a baseline sample")
	}
	baselineEpoch := created.Last.Epoch

	flip := graphgen.NewFlipStream(g.Internal(), 0.5, rand.New(rand.NewPCG(7, 7)))
	postBatch := func() uint64 {
		var ins, del [][2]int
		for _, c := range flip.Take(1 + rand.IntN(3)) {
			p := [2]int{int(c.U), int(c.V)}
			if c.Insert {
				ins = append(ins, p)
			} else {
				del = append(del, p)
			}
		}
		var resp mutateEdgesResponse
		env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
			map[string]any{"insert": ins, "delete": del}, &resp)
		return resp.Epoch
	}
	for i := 0; i < batches/2; i++ {
		postBatch()
	}
	var ck checkpointInfo
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/snapshot", nil, &ck)
	var finalEpoch uint64
	for i := 0; i < batches/2; i++ {
		finalEpoch = postBatch()
	}
	if finalEpoch != ck.Epoch+batches/2 {
		t.Fatalf("final epoch %d, want checkpoint %d + %d (every flip batch must be effective)", finalEpoch, ck.Epoch, batches/2)
	}
	preSnap := env.srv.registry.mustGet(t, "g").Snapshot()
	screenOpts := tesc.ScreenOptions{H: 1, SampleSize: 80, Alpha: 0.05, MinOccurrences: 1, Workers: 1, Seed: 31}
	preScreen, err := tesc.Screen(preSnap.Graph, eventSetOf(preSnap.Store), screenOpts)
	if err != nil {
		t.Fatal(err)
	}
	h := health(t, env)
	if h["wal_appends"].(float64) == 0 {
		t.Fatal("live server logged nothing")
	}

	// Die mid-debounce: 50 batches dirty and unflushed (the debounce is
	// an hour out), the WAL holding the only durable copy.
	srv.Kill()
	fsys.Crash()

	srv2, err := newFaultServer(fsys)
	if err != nil {
		t.Fatalf("recovery boot: %v", err)
	}
	env2 := serve(srv2)
	h2 := health(t, env2)
	if got, want := h2["wal_replayed"].(float64), float64(batches/2); got != want {
		t.Fatalf("wal_replayed = %v, want %v (the batches after the last checkpoint)", got, want)
	}
	if got := h2["recovery_epoch"].(float64); got != float64(finalEpoch) {
		t.Fatalf("recovery_epoch = %v, want %d", got, finalEpoch)
	}
	var info graphInfo
	env2.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info)
	if info.Epoch != finalEpoch {
		t.Fatalf("recovered graph at epoch %d, want %d", info.Epoch, finalEpoch)
	}

	// The monitor survived with its pre-crash history, and a refresh
	// binds the recovered (pre-crash) epoch.
	var detail monitorDetailView
	env2.do(t, http.StatusOK, "GET", "/v1/graphs/g/monitors/m", nil, &detail)
	if len(detail.History) == 0 || detail.History[0].Epoch != baselineEpoch {
		t.Fatalf("monitor history lost: %+v", detail.History)
	}
	var refreshed struct {
		Ran  bool               `json:"ran"`
		Last *monitorSampleView `json:"last"`
	}
	env2.do(t, http.StatusOK, "POST", "/v1/graphs/g/monitors/m/refresh?force=1", nil, &refreshed)
	if !refreshed.Ran || refreshed.Last == nil || refreshed.Last.Epoch != finalEpoch {
		t.Fatalf("post-restart refresh = %+v, want a sample at epoch %d", refreshed, finalEpoch)
	}

	// The recovered state screens bit-identically to the pre-kill state.
	recSnap := srv2.registry.mustGet(t, "g").Snapshot()
	recScreen, err := tesc.Screen(recSnap.Graph, eventSetOf(recSnap.Store), screenOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(preScreen, recScreen) {
		t.Fatalf("post-recovery screen diverged:\n  pre  %+v\n  post %+v", preScreen, recScreen)
	}
}

// TestAcksAfterTornAppendSurviveKill: a crash mid-append leaves half
// a frame at the end of the active segment, and a process kill (unlike
// a power cut) keeps those bytes. The reboot acknowledges more edge
// batches into a fresh segment; the boot after the next kill must
// recover every acknowledged epoch, not stop at the earlier tear.
func TestAcksAfterTornAppendSurviveKill(t *testing.T) {
	base, err := graph.FromEdges(20, [][2]graph.NodeID{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := tesc.FromInternal(base)
	batch := func(k int) []tesc.EdgeChange {
		return []tesc.EdgeChange{{U: k, V: k + 10, Insert: true}}
	}
	oraS := New(Config{IndexCacheCapacity: 4})
	oraE, err := oraS.registry.Register("g", g)
	if err != nil {
		t.Fatal(err)
	}
	ack := func(srv *Server, k int) {
		t.Helper()
		for _, s := range []*Server{srv, oraS} {
			if _, err := s.applyEdges(s.registry.mustGet(t, "g"), batch(k), true); err != nil {
				t.Fatalf("batch %d: %v", k, err)
			}
		}
	}

	fsys := wal.NewFaultFS()
	srv, err := newFaultServer(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.registry.Register("g", g); err != nil {
		t.Fatal(err)
	}
	if err := srv.durableAck("g"); err != nil {
		t.Fatal(err)
	}
	ack(srv, 2)
	fsys.TornWrite = func(size int) int { return size / 2 }
	fsys.SetCrashAfter(0)
	if _, err := srv.applyEdges(srv.registry.mustGet(t, "g"), batch(3), true); err == nil {
		t.Fatal("append during the injected crash was acknowledged")
	}
	srv.Kill()
	fsys.TornWrite = nil
	fsys.ClearFault() // the process died; the torn bytes stay on disk

	if srv, err = newFaultServer(fsys); err != nil {
		t.Fatalf("first reboot: %v", err)
	}
	if got := srv.registry.mustGet(t, "g").Epoch(); got != 2 {
		t.Fatalf("first reboot at epoch %d, want 2", got)
	}
	for k := 3; k <= 5; k++ {
		ack(srv, k)
	}
	srv.Kill()

	if srv, err = newFaultServer(fsys); err != nil {
		t.Fatalf("second reboot: %v", err)
	}
	want := oraE.Snapshot()
	if got := srv.recoveryEpoch.Load(); got != want.Epoch {
		t.Fatalf("recovery_epoch = %d, want the last acked epoch %d", got, want.Epoch)
	}
	assertStateEqual(t, "second reboot", srv.registry.mustGet(t, "g").Snapshot(), want)
}

// TestAckedRetryAfterFailedFsyncSurvivesReboot: an fsync failure
// rejects an edge batch whose frame is already whole in the active
// segment, and the rotation before the next append makes it durable.
// The client's retry at the same epoch carries a different batch and is
// acknowledged. The reboot must recover the acknowledged retry, not the
// rejected batch that precedes it in the log.
func TestAckedRetryAfterFailedFsyncSurvivesReboot(t *testing.T) {
	base, err := graph.FromEdges(20, [][2]graph.NodeID{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := tesc.FromInternal(base)
	batch := func(k int) []tesc.EdgeChange {
		return []tesc.EdgeChange{{U: k, V: k + 10, Insert: true}}
	}
	oraS := New(Config{IndexCacheCapacity: 4})
	if _, err := oraS.registry.Register("g", g); err != nil {
		t.Fatal(err)
	}
	fsys := wal.NewFaultFS()
	srv, err := newFaultServer(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.registry.Register("g", g); err != nil {
		t.Fatal(err)
	}
	if err := srv.durableAck("g"); err != nil {
		t.Fatal(err)
	}
	ack := func(k int) {
		t.Helper()
		for _, s := range []*Server{srv, oraS} {
			if _, err := s.applyEdges(s.registry.mustGet(t, "g"), batch(k), true); err != nil {
				t.Fatalf("batch %d: %v", k, err)
			}
		}
	}
	ack(2)
	fsys.SetSyncFailAfter(0)
	if _, err := srv.applyEdges(srv.registry.mustGet(t, "g"), batch(3), true); err == nil {
		t.Fatal("a batch whose fsync failed was acknowledged")
	}
	fsys.SetSyncFailAfter(-1)
	ack(4)
	ack(5)
	srv.Kill()

	if srv, err = newFaultServer(fsys); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	assertStateEqual(t, "reboot", srv.registry.mustGet(t, "g").Snapshot(), oraS.registry.mustGet(t, "g").Snapshot())
}

// TestCorruptFrameDoesNotReplayOldTimeline: a corrupt frame mid-segment
// hides acknowledged epochs 3–4, and a later segment holds epoch 5. The
// reboot stands the graph at epoch 2 and acknowledges new writes that
// refill epochs 3–4; once a checkpoint covers them, the boot after must
// not graft the old epoch-5 record onto the new timeline, even though
// its epoch and graph version are exactly next.
func TestCorruptFrameDoesNotReplayOldTimeline(t *testing.T) {
	base, err := graph.FromEdges(20, [][2]graph.NodeID{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	g := tesc.FromInternal(base)
	batch := func(k int) []tesc.EdgeChange {
		return []tesc.EdgeChange{{U: k, V: k + 10, Insert: true}}
	}
	apply := func(srv *Server, k int) edgeMutation {
		t.Helper()
		res, err := srv.applyEdges(srv.registry.mustGet(t, "g"), batch(k), true)
		if err != nil {
			t.Fatalf("batch %d: %v", k, err)
		}
		return res
	}
	oraS := New(Config{IndexCacheCapacity: 4})
	if _, err := oraS.registry.Register("g", g); err != nil {
		t.Fatal(err)
	}
	ack := func(srv *Server, k int) {
		t.Helper()
		apply(srv, k)
		apply(oraS, k)
	}

	fsys := wal.NewFaultFS()
	srv, err := newFaultServer(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.registry.Register("g", g); err != nil {
		t.Fatal(err)
	}
	if err := srv.durableAck("g"); err != nil {
		t.Fatal(err)
	}
	ack(srv, 2)
	res := apply(srv, 3)
	hidden, err := wal.EncodeFrame(&wal.Record{Kind: wal.KindEdges, Graph: "g",
		Epoch: res.snap.Epoch, GraphVersion: res.snap.GraphVersion, Changes: walChanges(res.applied)})
	if err != nil {
		t.Fatal(err)
	}
	apply(srv, 4)
	if err := srv.persist.log().Rotate(); err != nil {
		t.Fatal(err)
	}
	apply(srv, 5)
	srv.Kill()

	seg := fsys.List("data/wal-")[0]
	data := fsys.Bytes(seg)
	at := bytes.Index(data, hidden)
	if at < 0 {
		t.Fatal("epoch-3 frame not found in the first segment")
	}
	data[at+len(hidden)-1] ^= 0x40
	fsys.SetFile(seg, data)

	if srv, err = newFaultServer(fsys); err != nil {
		t.Fatalf("first reboot: %v", err)
	}
	if got := srv.registry.mustGet(t, "g").Epoch(); got != 2 {
		t.Fatalf("first reboot at epoch %d, want 2", got)
	}
	ack(srv, 8)
	ack(srv, 9)
	if _, err := srv.Checkpoint("g"); err != nil {
		t.Fatal(err)
	}
	srv.Kill()

	if srv, err = newFaultServer(fsys); err != nil {
		t.Fatalf("second reboot: %v", err)
	}
	assertStateEqual(t, "second reboot", srv.registry.mustGet(t, "g").Snapshot(), oraS.registry.mustGet(t, "g").Snapshot())
}

// mustGet fetches a registry entry or fails the test.
func (r *Registry) mustGet(t *testing.T, name string) *GraphEntry {
	t.Helper()
	e, ok := r.Get(name)
	if !ok {
		t.Fatalf("graph %q not registered", name)
	}
	return e
}

// checkRecovered asserts the recovered server's state against the
// oracle at the acknowledged prefix.
func checkRecovered(t *testing.T, ctx string, sc recSchedule, rec *Server, acked int, regAcked bool) {
	t.Helper()
	e, ok := rec.registry.Get("g")
	if !regAcked {
		// The registration was never acknowledged. Its checkpoint may
		// still have survived (the crash can land after the rename is
		// durable but before the ack) — then the graph exists at its
		// initial state; otherwise it must be absent.
		if ok {
			_, oraE := oracleServer(t, sc, 0)
			assertStateEqual(t, ctx+" (unacked registration)", e.Snapshot(), oraE.Snapshot())
		}
		return
	}
	if !ok {
		t.Fatalf("%s: acknowledged graph lost", ctx)
	}
	_, oraE := oracleServer(t, sc, acked)
	assertStateEqual(t, ctx, e.Snapshot(), oraE.Snapshot())
	// Replay accounting: every epoch past the last durable checkpoint
	// must have come back through the WAL. The recovery epoch healthz
	// advertises is the entry's epoch itself.
	if got, want := rec.recoveryEpoch.Load(), oraE.Snapshot().Epoch; got != want {
		t.Fatalf("%s: recovery_epoch = %d, want %d", ctx, got, want)
	}
}
