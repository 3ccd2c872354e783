package server

import (
	"fmt"
	"math/rand/v2"
	"net/http"
	"strings"
	"testing"
	"time"

	"tesc"
	"tesc/internal/graphgen"
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
