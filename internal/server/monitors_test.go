package server

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"tesc"
	"tesc/internal/graphgen"
	"tesc/internal/monitor"
	"tesc/internal/screen"
)

// monitorJSON mirrors the monitor wire views for test decoding.
type monitorJSON struct {
	ID         string         `json:"id"`
	A          string         `json:"a"`
	B          string         `json:"b"`
	H          int            `json:"h"`
	Policy     string         `json:"policy"`
	Pending    int            `json:"pending_batches"`
	Last       *sampleJSON    `json:"last"`
	History    []sampleJSON   `json:"history"`
	Ran        bool           `json:"ran"`
	SampleSize int            `json:"sample_size"`
	Extra      map[string]any `json:"-"`
}

type sampleJSON struct {
	Epoch       uint64  `json:"epoch"`
	Batches     int     `json:"batches"`
	Tau         float64 `json:"tau"`
	Z           float64 `json:"z"`
	P           float64 `json:"p"`
	Significant bool    `json:"significant"`
	Skipped     string  `json:"skipped"`
	Reused      int64   `json:"nodes_reused"`
	Recomputed  int64   `json:"nodes_recomputed"`
}

func healthCounters(t *testing.T, env *testEnv) map[string]float64 {
	t.Helper()
	var raw map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &raw)
	out := make(map[string]float64)
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out
}

// TestMonitorEndToEnd is the standing-query acceptance test: register
// a monitor over a live graph, stream 100 FlipStream mutations through
// the HTTP API in coalesced batches, and assert (a) the history ring
// advances once per coalesced drain with the right batch count, (b)
// monitor_nodes_reused climbs — the incremental path is engaging, (c)
// a daemon restart from the snapshot store restores the monitor with
// its history epoch intact and it keeps tracking.
func TestMonitorEndToEnd(t *testing.T) {
	dir := t.TempDir()
	srv := New(Config{IndexCacheCapacity: 4, DataDir: dir, CheckpointDelay: time.Hour})
	env := serve(srv)

	// A sparse 10k-node surrogate with the event pair clustered in one
	// region: random flips mostly land far from the reference sample,
	// which is exactly the locality the incremental path exploits.
	g := tesc.RandomCoauthorshipGraph(0.1, 42)
	var edges strings.Builder
	if err := g.WriteGraph(&edges); err != nil {
		t.Fatal(err)
	}
	var va, vb []int
	for v := 0; v < 30; v++ {
		va = append(va, v)
		vb = append(vb, 30+v)
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs",
		map[string]any{"name": "g", "edge_list": edges.String()}, nil)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"left": va, "right": vb}}, nil)

	// Unknown events are rejected up front.
	env.do(t, http.StatusNotFound, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "left", "b": "ghost", "h": 2}, nil)

	var mon monitorJSON
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "left", "b": "right", "h": 2, "sample_size": 150, "seed": 7, "policy": "manual"}, &mon)
	if mon.Last == nil || mon.Last.Epoch != 2 {
		t.Fatalf("baseline sample missing or mis-stamped: %+v", mon.Last)
	}
	if mon.Last.Recomputed == 0 {
		t.Fatal("baseline paid no density traversals")
	}
	id := mon.ID

	// Stream 100 FlipStream mutations: 2 rounds x 5 batches x 10 flips,
	// one synchronous drain per round — each drain must fold exactly
	// its round's 5 batches into ONE re-screen.
	stream := graphgen.NewFlipStream(g.Internal(), 0.5, rand.New(rand.NewPCG(5, 5)))
	epoch := uint64(2)
	reusedBefore := healthCounters(t, env)["monitor_nodes_reused"]
	for round := 0; round < 2; round++ {
		for batch := 0; batch < 5; batch++ {
			flips := stream.Take(10)
			var ins, del [][2]int
			for _, c := range flips {
				p := [2]int{int(c.U), int(c.V)}
				if c.Insert {
					ins = append(ins, p)
				} else {
					del = append(del, p)
				}
			}
			env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
				map[string]any{"insert": ins, "delete": del}, nil)
			epoch++
		}
		var refreshed monitorJSON
		env.do(t, http.StatusOK, "POST", fmt.Sprintf("/v1/graphs/g/monitors/%s/refresh", id), map[string]any{}, &refreshed)
		if !refreshed.Ran {
			t.Fatalf("round %d: refresh did not run", round)
		}
		if refreshed.Last.Epoch != epoch {
			t.Fatalf("round %d: re-screen bound to epoch %d, want %d", round, refreshed.Last.Epoch, epoch)
		}
		if refreshed.Last.Batches != 5 {
			t.Fatalf("round %d: re-screen folded %d batches, want 5 (coalescing)", round, refreshed.Last.Batches)
		}
	}

	var detail monitorJSON
	env.do(t, http.StatusOK, "GET", "/v1/graphs/g/monitors/"+id, nil, &detail)
	if len(detail.History) != 3 { // baseline + one entry per coalesced drain
		t.Fatalf("history = %d entries, want 3 (baseline + 2 coalesced drains)", len(detail.History))
	}
	health := healthCounters(t, env)
	if health["monitors_active"] != 1 {
		t.Fatalf("monitors_active = %v, want 1", health["monitors_active"])
	}
	if health["monitor_reruns"] != 2 {
		t.Fatalf("monitor_reruns = %v, want 2", health["monitor_reruns"])
	}
	if health["monitor_nodes_reused"] <= reusedBefore {
		t.Fatalf("monitor_nodes_reused did not climb (%v -> %v): the incremental path never engaged",
			reusedBefore, health["monitor_nodes_reused"])
	}

	// Checkpoint, shut the instance down, and warm-start a second one
	// from the same data directory: the monitor must come back with its
	// definition and history epoch.
	var ckpt struct {
		Monitors int `json:"monitors"`
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/snapshot", map[string]any{}, &ckpt)
	if ckpt.Monitors != 1 {
		t.Fatalf("checkpoint persisted %d monitors, want 1", ckpt.Monitors)
	}

	srv2 := New(Config{IndexCacheCapacity: 4, DataDir: dir, CheckpointDelay: time.Hour})
	if n, err := srv2.LoadData(); err != nil || n != 1 {
		t.Fatalf("warm start: restored %d graphs, err=%v", n, err)
	}
	env2 := serve(srv2)
	var restored monitorJSON
	env2.do(t, http.StatusOK, "GET", "/v1/graphs/g/monitors/"+id, nil, &restored)
	if len(restored.History) != len(detail.History) {
		t.Fatalf("restored history = %d entries, want %d", len(restored.History), len(detail.History))
	}
	if restored.Last == nil || restored.Last.Epoch != epoch {
		t.Fatalf("restored monitor lost its history epoch: %+v", restored.Last)
	}
	if got := healthCounters(t, env2)["monitors_active"]; got != 1 {
		t.Fatalf("restored monitors_active = %v, want 1", got)
	}

	// The restored monitor keeps tracking: mutate, drain, epoch advances.
	flips := stream.Take(5)
	var ins, del [][2]int
	for _, c := range flips {
		p := [2]int{int(c.U), int(c.V)}
		if c.Insert {
			ins = append(ins, p)
		} else {
			del = append(del, p)
		}
	}
	env2.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": ins, "delete": del}, nil)
	var again monitorJSON
	env2.do(t, http.StatusOK, "POST", fmt.Sprintf("/v1/graphs/g/monitors/%s/refresh", id), map[string]any{}, &again)
	if !again.Ran || again.Last.Epoch != epoch+1 {
		t.Fatalf("post-restore tracking: ran=%v epoch=%v, want epoch %d", again.Ran, again.Last, epoch+1)
	}

	// Delete tears the monitor down.
	env2.do(t, http.StatusNoContent, "DELETE", "/v1/graphs/g/monitors/"+id, nil, nil)
	env2.do(t, http.StatusNotFound, "GET", "/v1/graphs/g/monitors/"+id, nil, nil)
	if got := healthCounters(t, env2)["monitors_active"]; got != 0 {
		t.Fatalf("monitors_active after delete = %v, want 0", got)
	}
}

// TestMonitorAutoPolicyHTTP exercises the debounced path end to end: a
// burst of mutation batches triggers at most a few automatic
// re-screens, without any refresh call.
func TestMonitorAutoPolicyHTTP(t *testing.T) {
	srv := New(Config{IndexCacheCapacity: 4})
	env := serve(srv)
	g := tesc.RandomCommunityGraph(4, 30, 6, 0.5, 9)
	var edges strings.Builder
	if err := g.WriteGraph(&edges); err != nil {
		t.Fatal(err)
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs",
		map[string]any{"name": "g", "edge_list": edges.String()}, nil)
	var va, vb []int
	for v := 0; v < 12; v++ {
		va = append(va, v)
		vb = append(vb, 90+v)
	}
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"a": va, "b": vb}}, nil)

	var mon monitorJSON
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "a", "b": "b", "h": 1, "sample_size": 60, "seed": 3, "debounce_ms": 15}, &mon)

	stream := graphgen.NewFlipStream(g.Internal(), 0.5, rand.New(rand.NewPCG(6, 6)))
	const bursts = 8
	finalEpoch := uint64(2)
	for i := 0; i < bursts; i++ {
		c := stream.Take(1)[0]
		body := map[string]any{}
		if c.Insert {
			body["insert"] = [][2]int{{int(c.U), int(c.V)}}
		} else {
			body["delete"] = [][2]int{{int(c.U), int(c.V)}}
		}
		env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", body, nil)
		finalEpoch++
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		var detail monitorJSON
		env.do(t, http.StatusOK, "GET", "/v1/graphs/g/monitors/"+mon.ID, nil, &detail)
		if detail.Pending == 0 && detail.Last != nil && detail.Last.Epoch == finalEpoch {
			if runs := len(detail.History) - 1; runs < 1 || runs > bursts {
				t.Fatalf("auto policy ran %d re-screens for %d batches", runs, bursts)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("auto monitor never caught up: %+v", detail)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// monitorGraph registers a 120-node graph with events a and b and a
// fixed-pair manual monitor on them at h = 1, returning its entry and
// the monitor's ID.
func monitorGraph(t *testing.T, env *testEnv, srv *Server) (*GraphEntry, string) {
	t.Helper()
	g := tesc.RandomCommunityGraph(4, 30, 6, 0.5, 9)
	var edges strings.Builder
	if err := g.WriteGraph(&edges); err != nil {
		t.Fatal(err)
	}
	env.do(t, http.StatusCreated, "POST", "/v1/graphs", map[string]any{"name": "g", "edge_list": edges.String()}, nil)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"a": {0, 1, 2, 3, 4, 5}, "b": {60, 61, 62, 63, 64}}}, nil)
	var mon monitorJSON
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "a", "b": "b", "h": 1, "sample_size": 60, "seed": 3, "policy": "manual"}, &mon)
	e, _ := srv.Registry().Get("g")
	return e, mon.ID
}

// TestMonitorMemoInRegistryLRU: a fixed-pair monitor borrows the
// entry's memo of its two events, which the registry's LRU holds under
// the memo budget. The budget can evict it, and the next refresh then
// runs cold and stays bit-identical to a from-scratch screen.
func TestMonitorMemoInRegistryLRU(t *testing.T) {
	srv := New(Config{IndexCacheCapacity: 4})
	env := serve(srv)
	e, id := monitorGraph(t, env, srv)
	memos := srv.registry.memos
	if denseMemo(e, []string{"a", "b"}, 1) == nil || memos.lru.Len() != 1 {
		t.Fatalf("the LRU holds %d memos, want the monitor's", memos.lru.Len())
	}

	// A screen job's memo is more recent; a squeezed budget keeps it
	// alone.
	var acc screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen", map[string]any{"h": 2, "sample_size": 60, "seed": 1}, &acc)
	if v := pollJob(t, env, acc.JobID); v.Status != JobDone {
		t.Fatalf("job: %s", v.Error)
	}
	memos.mu.Lock()
	memos.budget = 1
	memos.evictLocked()
	memos.budget = screen.MemoBudgetBytes
	memos.mu.Unlock()
	if denseMemo(e, []string{"a", "b"}, 1) != nil || memos.lru.Len() != 1 {
		t.Fatal("the squeezed budget did not evict the monitor's memo")
	}

	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges", map[string]any{"insert": [][2]int{{0, 90}}}, nil)
	var got monitorJSON
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/monitors/"+id+"/refresh", map[string]any{}, &got)
	snap := e.Snapshot()
	res, err := screen.Run(snap.Graph.Internal(), snap.Store, [][2]string{{"a", "b"}}, screen.Config{H: 1, SampleSize: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Pairs[0]
	if !got.Ran || got.Last.Epoch != snap.Epoch || got.Last.Reused != 0 ||
		got.Last.Tau != want.Tau || got.Last.Z != want.Z || got.Last.P != want.P || got.Last.Significant != want.Significant {
		t.Fatalf("refresh after the eviction: %+v, from scratch tau=%v z=%v p=%v", got.Last, want.Tau, want.Z, want.P)
	}
	if denseMemo(e, []string{"a", "b"}, 1) == nil {
		t.Fatal("the refresh did not make the monitor's memo again")
	}
}

// TestEdgeBatchBallBorrowsPools: an edge batch advances a memo that no
// cached index's repair covers by its own dirty ball, on engines from
// the two versions' pools. The old version's pool is warm; the new
// one's engine is new and stays in that version's pool for its
// queries. So the batch costs at most 1.5·|V| bytes more than on an
// entry with no memo; fresh engines on both sides would cost 2·|V|.
func TestEdgeBatchBallBorrowsPools(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops engines at random under -race")
	}
	g := tesc.FromInternal(graphgen.WattsStrogatz(20000, 2, 0.1, rand.New(rand.NewPCG(24, 25))))
	s := New(Config{})
	bare, err := s.Registry().Register("bare", g)
	if err != nil {
		t.Fatal(err)
	}
	watched, err := s.Registry().Register("watched", g)
	if err != nil {
		t.Fatal(err)
	}
	ev := map[string][]int{"a": {1, 2, 3, 4, 5}, "b": {9, 10, 11}}
	for _, e := range []*GraphEntry{bare, watched} {
		if err := s.applyEvents(e, ev, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	def := monitor.Definition{A: "a", B: "b", H: 1, SampleSize: 40, Mode: monitor.Manual}
	if _, err := s.monitors.Create("watched", def, entrySnapshotFunc(watched), watched.lendMemo); err != nil {
		t.Fatal(err)
	}
	if len(watched.held) != 1 || len(bare.held) != 0 {
		t.Fatalf("memos: %d on the watched entry, %d on the bare one; want 1 and 0", len(watched.held), len(bare.held))
	}
	flip := func(e *GraphEntry) {
		for _, insert := range []bool{true, false} {
			if _, err := s.applyEdges(e, []tesc.EdgeChange{{U: 7, V: 15007, Insert: insert}}, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	perBatch := func(e *GraphEntry) int64 {
		flip(e) // warm both versions' pools
		var before, after runtime.MemStats
		const runs = 20
		runtime.ReadMemStats(&before)
		for range runs {
			flip(e)
		}
		runtime.ReadMemStats(&after)
		return int64(after.TotalAlloc-before.TotalAlloc) / (2 * runs)
	}
	base, withMemo := perBatch(bare), perBatch(watched)
	n := int64(g.NumNodes())
	t.Logf("%d B per batch on the bare entry, %d with the monitor's memo, on %d nodes", base, withMemo, n)
	if withMemo-base > n*3/2 {
		t.Fatalf("the memo's ball costs %d B per batch, want at most %d: it ran on fresh engines", withMemo-base, n*3/2)
	}
}
