package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"tesc/api"
	"tesc/client"
)

// A screen submission the owner never answers counts against it like
// any other proxied request: FailThreshold of them eject the owner, and
// the next submission is shed as no_owner without a network hop.
func TestCoordinatorScreenTransportFailureEjects(t *testing.T) {
	net, m, curl := soloCluster(t)
	net.down(m.owner.url)
	for i := range 3 { // the default FailThreshold
		code, raw := net.doRaw(t, "POST", curl+"/v1/graphs/g/screen", api.ScreenRequest{H: 1})
		var e api.Error
		if err := json.Unmarshal(raw, &e); err != nil || code != http.StatusServiceUnavailable || e.Code != api.CodeUnavailable {
			t.Fatalf("submission %d to a dead owner = %d %s, want unavailable", i, code, raw)
		}
	}
	h, err := client.New(curl, client.WithHTTPClient(net.client())).Health(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if owner := h.Cluster.Members[0].Endpoints[0]; owner.Healthy || owner.ConsecutiveFailures != 3 || h.Cluster.ProxyErrors != 3 {
		t.Fatalf("after 3 unanswered screens: %+v", h.Cluster)
	}
	code, raw := net.doRaw(t, "POST", curl+"/v1/graphs/g/screen", api.ScreenRequest{H: 1})
	var e api.Error
	if err := json.Unmarshal(raw, &e); err != nil || e.Code != api.CodeNoOwner {
		t.Fatalf("submission to an ejected owner = %d %s, want no_owner", code, raw)
	}
}

// A member that answers the graph list with a typed error has answered:
// the list skips its graphs, counts the exchange as proxied, not as a
// proxy error, and the member's health is untouched.
func TestCoordinatorListCountsTypedAnswers(t *testing.T) {
	net := newHops()
	busy := net.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		api.WriteRetryable(w, time.Second, api.CodeOverloadedFG, "busy")
	}))
	coord, err := NewCoordinator(Config{
		Topology:   Topology{Members: []Member{{Name: "busy", URL: busy}}},
		HTTPClient: net.client(),
	})
	if err != nil {
		t.Fatal(err)
	}
	curl := net.serve(coord.Handler())
	code, raw := net.doRaw(t, "GET", curl+"/v1/graphs", nil)
	if code != http.StatusOK || string(raw) != "[]\n" {
		t.Fatalf("list = %d %q, want an empty list", code, raw)
	}
	ch := coord.clusterHealth()
	if owner := ch.Members[0].Endpoints[0]; ch.Proxied != 1 || ch.ProxyErrors != 0 || !owner.Healthy || owner.ConsecutiveFailures != 0 {
		t.Fatalf("after a typed list answer: %+v", ch)
	}
}

// With the owner down, reads route to its replica only while the
// replica lags by at most MaxLagEpochs: past the bound, per-graph reads
// and the graph list skip it, and once it catches up it serves both
// again.
func TestCoordinatorReplicaLagBound(t *testing.T) {
	net := newHops()
	var lag atomic.Uint64
	replica := net.serve(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			api.WriteJSON(w, http.StatusOK, api.Health{Status: "ok", ReplicaHealth: &api.ReplicaHealth{ReplicaLagEpochs: lag.Load()}})
		case "/v1/graphs":
			api.WriteJSON(w, http.StatusOK, []api.GraphInfo{{Name: "g"}})
		default:
			api.WriteJSON(w, http.StatusOK, api.GraphInfo{Name: "g"})
		}
	}))
	owner := net.serve(http.NotFoundHandler())
	net.down(owner)
	coord, err := NewCoordinator(Config{
		Topology:      Topology{Members: []Member{{Name: "m", URL: owner, Replicas: []string{replica}}}},
		HTTPClient:    net.client(),
		FailThreshold: 1,
		MaxLagEpochs:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	curl := net.serve(coord.Handler())
	for _, step := range []struct {
		lag    uint64
		code   int
		graphs int
	}{{4, http.StatusOK, 1}, {5, http.StatusServiceUnavailable, 0}, {0, http.StatusOK, 1}} {
		lag.Store(step.lag)
		coord.ProbeNow(context.Background())
		code, _ := net.doRaw(t, "GET", curl+"/v1/graphs/g", nil)
		_, raw := net.doRaw(t, "GET", curl+"/v1/graphs", nil)
		var list []api.GraphInfo
		if err := json.Unmarshal(raw, &list); err != nil {
			t.Fatalf("list: %s", raw)
		}
		if code != step.code || len(list) != step.graphs {
			t.Fatalf("replica lagging %d epochs (bound 4): read %d, list of %d graphs; want %d and %d",
				step.lag, code, len(list), step.code, step.graphs)
		}
	}
}
