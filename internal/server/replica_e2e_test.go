package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"

	"tesc"
	"tesc/internal/graph"
	"tesc/internal/replica"
	"tesc/internal/wal"
)

// replicaEnv is a primary with a real HTTP listener plus a durable
// follower replicating from it over replica.HTTPTransport — the
// production wire path end to end.
type replicaEnv struct {
	t       *testing.T
	primary *Server
	pts     *httptest.Server
	folDir  string
	folSrv  *Server
	fts     *httptest.Server
	fol     *replica.Follower
}

func newReplicaEnv(t *testing.T) *replicaEnv {
	t.Helper()
	primDir := t.TempDir()
	primary := New(Config{IndexCacheCapacity: 4, DataDir: primDir, CheckpointDelay: time.Hour})
	if _, err := primary.LoadData(); err != nil {
		t.Fatal(err)
	}
	pts := httptest.NewServer(primary.Handler())
	t.Cleanup(pts.Close)
	t.Cleanup(primary.Close)
	return &replicaEnv{t: t, primary: primary, pts: pts, folDir: t.TempDir()}
}

// startFollower boots (or reboots) the follower over its persistent
// data directory and wires a Follower to the primary's public URL.
func (e *replicaEnv) startFollower() {
	e.t.Helper()
	e.folSrv = New(Config{IndexCacheCapacity: 4, DataDir: e.folDir, CheckpointDelay: time.Hour, ReadOnly: true})
	if _, err := e.folSrv.LoadData(); err != nil {
		e.t.Fatal(err)
	}
	e.fts = httptest.NewServer(e.folSrv.Handler())
	e.fol = replica.New(&replica.HTTPTransport{Base: e.pts.URL}, e.folSrv.FollowerState(), nil)
	e.folSrv.AttachFollower(e.fol)
}

func (e *replicaEnv) do(code int, method, url string, body any) map[string]any {
	e.t.Helper()
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			e.t.Fatal(err)
		}
		rd = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		e.t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		e.t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != code {
		e.t.Fatalf("%s %s: got %d, want %d: %s", method, url, resp.StatusCode, code, raw)
	}
	var out map[string]any
	if len(raw) > 0 && json.Unmarshal(raw, &out) != nil {
		return nil
	}
	return out
}

// churn applies n edge batches and one event batch to graph g.
func (e *replicaEnv) churn(g string, n int) {
	e.t.Helper()
	for i := 0; i < n; i++ {
		e.do(http.StatusOK, "POST", e.pts.URL+"/v1/graphs/"+g+"/edges",
			map[string]any{"insert": [][2]int{{i % 7, (i + 3) % 7}}})
	}
	e.do(http.StatusOK, "POST", e.pts.URL+"/v1/graphs/"+g+"/events",
		map[string]any{"events": map[string][]int{"pulse": {n % 7}}})
}

// converge pumps the follower until it matches the primary.
func (e *replicaEnv) converge() {
	e.t.Helper()
	for i := 0; i < 50; i++ {
		if err := e.fol.Sync(); err != nil {
			e.t.Fatalf("sync %d: %v", i, err)
		}
		if replicaStateString(e.primary) == replicaStateString(e.folSrv) {
			return
		}
	}
	e.t.Fatalf("follower did not converge:\nprimary:\n%s\nfollower:\n%s",
		replicaStateString(e.primary), replicaStateString(e.folSrv))
}

// replicaStateString renders every graph's epochs, adjacency and
// events canonically for bit-for-bit comparison.
func replicaStateString(s *Server) string {
	var b strings.Builder
	names := append([]string(nil), s.Registry().Names()...)
	sort.Strings(names)
	for _, name := range names {
		en, ok := s.Registry().Get(name)
		if !ok {
			continue
		}
		snap := en.Snapshot()
		fmt.Fprintf(&b, "%s epoch=%d gv=%d\n", name, snap.Epoch, snap.GraphVersion)
		for v := 0; v < snap.Graph.NumNodes(); v++ {
			nb := snap.Graph.Neighbors(v)
			sort.Ints(nb)
			fmt.Fprintf(&b, " %d:%v\n", v, nb)
		}
		evs := append([]string(nil), snap.Store.Names()...)
		sort.Strings(evs)
		for _, ev := range evs {
			occ := snap.Store.Occurrences(ev)
			fmt.Fprintf(&b, " ev %s %v\n", ev, occ)
		}
	}
	return b.String()
}

// TestReplicaE2E drives the full follower lifecycle over real HTTP:
// join mid-churn (snapshot bootstrap), stream to caught-up, survive a
// crash and resume from the local WAL tail and saved cursor, and keep
// serving reads while refusing writes.
func TestReplicaE2E(t *testing.T) {
	e := newReplicaEnv(t)

	// A small line graph, then mutations BEFORE the follower exists —
	// the join happens mid-churn and must bootstrap from a snapshot.
	e.do(http.StatusCreated, "POST", e.pts.URL+"/v1/graphs",
		map[string]any{"name": "g", "edge_list": "0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n"})
	e.do(http.StatusOK, "POST", e.pts.URL+"/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"a": {0, 1}, "b": {5, 6}}})
	e.churn("g", 5)

	e.startFollower()
	e.converge()
	if m := e.fol.Metrics(); m.Bootstraps == 0 {
		t.Error("mid-churn join should have installed a snapshot bootstrap")
	}
	// More churn after the join streams as log records (the bootstrap
	// itself arrives inside the snapshot, not as applied records).
	e.churn("g", 4)
	e.converge()

	// healthz on both ends reflects the shipping.
	if h := e.do(http.StatusOK, "GET", e.pts.URL+"/healthz", nil); h["records_shipped"].(float64) == 0 {
		t.Errorf("primary records_shipped = %v, want > 0", h["records_shipped"])
	}
	h := e.do(http.StatusOK, "GET", e.fts.URL+"/healthz", nil)
	if h["replica_lag_epochs"].(float64) != 0 {
		t.Errorf("follower replica_lag_epochs = %v, want 0", h["replica_lag_epochs"])
	}
	if h["records_applied"].(float64) == 0 {
		t.Errorf("follower records_applied = %v, want > 0", h["records_applied"])
	}
	if h["read_only"] != true {
		t.Errorf("follower healthz read_only = %v, want true", h["read_only"])
	}

	// The follower serves reads but refuses mutations.
	e.do(http.StatusOK, "POST", e.fts.URL+"/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "b", "h": 1, "sample_size": 40})
	e.do(http.StatusForbidden, "POST", e.fts.URL+"/v1/graphs/g/edges",
		map[string]any{"insert": [][2]int{{0, 3}}})
	e.do(http.StatusForbidden, "POST", e.fts.URL+"/v1/graphs", map[string]any{"name": "x"})
	e.do(http.StatusForbidden, "DELETE", e.fts.URL+"/v1/graphs/g", nil)

	// Kill the follower mid-stream (no flush), keep churning, reboot.
	// The restart must warm-start from the follower's own local WAL
	// tail and resume pulling from the saved cursor — no fresh
	// snapshot bootstrap for a graph it already holds.
	e.fol.Sync()
	e.fts.Close()
	e.folSrv.Kill()
	e.churn("g", 7)
	e.startFollower()
	defer e.fts.Close()
	defer e.folSrv.Close()
	e.converge()
	if m := e.fol.Metrics(); m.Bootstraps != 0 {
		t.Errorf("restarted follower re-bootstrapped %d times, want 0 (cursor resume)", m.Bootstraps)
	}
	if m := e.fol.Metrics(); m.RecordsApplied == 0 {
		t.Error("restarted follower applied no records despite churn")
	}

	// A graph dropped on the primary disappears from the follower too.
	e.do(http.StatusNoContent, "DELETE", e.pts.URL+"/v1/graphs/g", nil)
	e.converge()
	if names := e.folSrv.Registry().Names(); len(names) != 0 {
		t.Errorf("follower still holds %v after primary drop", names)
	}
}

// TestMinEpochStaleReads is the bounded-staleness regression: a query
// demanding a min_epoch beyond the replica's applied epoch must get
// 503 + Retry-After (so clients can wait out replication lag), and a
// satisfied min_epoch must serve normally.
func TestMinEpochStaleReads(t *testing.T) {
	e := newReplicaEnv(t)
	e.do(http.StatusCreated, "POST", e.pts.URL+"/v1/graphs",
		map[string]any{"name": "g", "edge_list": "0 1\n1 2\n2 3\n3 4\n"})
	e.do(http.StatusOK, "POST", e.pts.URL+"/v1/graphs/g/events",
		map[string]any{"events": map[string][]int{"a": {0, 1}, "b": {3, 4}}})

	stale := map[string]map[string]any{
		"/v1/graphs/g/correlate": {"a": "a", "b": "b", "h": 1, "sample_size": 40, "min_epoch": 999},
		"/v1/graphs/g/screen":    {"h": 1, "sample_size": 40, "min_epoch": 999},
	}
	for path, body := range stale {
		req, _ := http.NewRequest("POST", e.pts.URL+path, bytes.NewReader(mustJSON(t, body)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s min_epoch=999: got %d, want 503: %s", path, resp.StatusCode, raw)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Errorf("%s stale response missing Retry-After", path)
		}
		if !strings.Contains(string(raw), "needs 999") {
			t.Errorf("%s stale response body %q should name the demanded epoch", path, raw)
		}
	}

	// Satisfied min_epoch serves normally (epoch is ≥ 2 after the event
	// batch; min_epoch 1 is certainly covered).
	e.do(http.StatusOK, "POST", e.pts.URL+"/v1/graphs/g/correlate",
		map[string]any{"a": "a", "b": "b", "h": 1, "sample_size": 40, "min_epoch": 1})
	e.do(http.StatusAccepted, "POST", e.pts.URL+"/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 40, "min_epoch": 1})
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestFollowerPullBetweenFailedFsyncAndRetry: an fsync failure
// rejects an edge batch whose frame is already whole in the primary's
// active segment, and a follower's pull lands before the client
// retries. The retry carries a different batch at the same epoch and
// is acknowledged right after that pull, inside the follower's sync
// round. The follower must converge to the retry bit-identically,
// never having applied the rejected batch.
func TestFollowerPullBetweenFailedFsyncAndRetry(t *testing.T) {
	base, err := graph.FromEdges(20, [][2]graph.NodeID{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	fsys := wal.NewFaultFS()
	primary, err := newFaultServer(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.registry.Register("g", tesc.FromInternal(base)); err != nil {
		t.Fatal(err)
	}
	if err := primary.durableAck("g"); err != nil {
		t.Fatal(err)
	}
	apply := func(k int) error {
		_, err := primary.applyEdges(primary.registry.mustGet(t, "g"), []tesc.EdgeChange{{U: k, V: k + 10, Insert: true}}, true)
		return err
	}
	if err := apply(2); err != nil {
		t.Fatal(err)
	}

	folSrv := New(Config{IndexCacheCapacity: 4, DataDir: "data", CheckpointDelay: time.Hour, FS: wal.NewFaultFS(), ReadOnly: true})
	if _, err := folSrv.LoadData(); err != nil {
		t.Fatal(err)
	}
	src := &afterPullSource{ReplicaSource: ReplicaSource{S: primary}}
	fol := replica.New(src, folSrv.FollowerState(), nil)
	pull := func() {
		t.Helper()
		if err := fol.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	pull()
	// The follower falls one batch behind, so its next round pulls.
	if err := apply(3); err != nil {
		t.Fatal(err)
	}

	fsys.SetSyncFailAfter(0)
	if err := apply(4); err == nil {
		t.Fatal("a batch whose fsync failed was acknowledged")
	}
	fsys.SetSyncFailAfter(-1)
	retried := false
	src.hook = func() {
		src.hook = nil
		if err := apply(5); err != nil {
			t.Errorf("retry: %v", err)
		}
		retried = true
	}
	for i := 0; i < 4; i++ {
		pull()
	}
	if !retried {
		t.Fatal("the follower never pulled between the failed fsync and the retry")
	}
	if got, want := replicaStateString(folSrv), replicaStateString(primary); got != want {
		t.Fatalf("follower diverged from the primary:\nprimary:\n%s\nfollower:\n%s", want, got)
	}
}

// TestFollowerAcrossRebootSkipsRejectedFrame: an fsync failure rejects
// an edge batch whose frame stays whole at the end of its segment, the
// retry at the same epoch is acknowledged in the next segment, and the
// primary reboots. A follower whose cursor still sits before the
// rejected frame then pulls across the reboot. The boot scan must not
// ship the rejected frame — the live log never did — or the follower
// applies it and skips the acknowledged retry as a duplicate.
func TestFollowerAcrossRebootSkipsRejectedFrame(t *testing.T) {
	base, err := graph.FromEdges(20, [][2]graph.NodeID{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	fsys := wal.NewFaultFS()
	primary, err := newFaultServer(fsys)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := primary.registry.Register("g", tesc.FromInternal(base)); err != nil {
		t.Fatal(err)
	}
	if err := primary.durableAck("g"); err != nil {
		t.Fatal(err)
	}
	apply := func(k int) error {
		_, err := primary.applyEdges(primary.registry.mustGet(t, "g"), []tesc.EdgeChange{{U: k, V: k + 10, Insert: true}}, true)
		return err
	}
	if err := apply(2); err != nil {
		t.Fatal(err)
	}

	folSrv := New(Config{IndexCacheCapacity: 4, DataDir: "data", CheckpointDelay: time.Hour, FS: wal.NewFaultFS(), ReadOnly: true})
	if _, err := folSrv.LoadData(); err != nil {
		t.Fatal(err)
	}
	src := &ReplicaSource{S: primary}
	fol := replica.New(src, folSrv.FollowerState(), nil)
	pull := func() {
		t.Helper()
		if err := fol.Sync(); err != nil {
			t.Fatal(err)
		}
	}
	pull() // the follower's cursor now ends where the rejected frame will start

	fsys.SetSyncFailAfter(0)
	if err := apply(3); err == nil {
		t.Fatal("a batch whose fsync failed was acknowledged")
	}
	fsys.SetSyncFailAfter(-1)
	if err := apply(4); err != nil {
		t.Fatalf("retry: %v", err)
	}
	primary.Kill()
	if primary, err = newFaultServer(fsys); err != nil {
		t.Fatalf("reboot: %v", err)
	}
	src.S = primary
	for i := 0; i < 4; i++ {
		pull()
	}
	if got, want := replicaStateString(folSrv), replicaStateString(primary); got != want {
		t.Fatalf("follower diverged from the rebooted primary:\nprimary:\n%s\nfollower:\n%s", want, got)
	}
	if !primary.registry.mustGet(t, "g").Snapshot().Graph.Internal().HasEdge(4, 14) {
		t.Fatal("the rebooted primary lost the acknowledged retry")
	}
}

// afterPullSource runs hook, when set, right after each pull it serves.
type afterPullSource struct {
	ReplicaSource
	hook func()
}

func (s *afterPullSource) Pull(cur wal.ShipCursor, maxBytes int) (wal.ShipBatch, error) {
	batch, err := s.ReplicaSource.Pull(cur, maxBytes)
	if s.hook != nil {
		s.hook()
	}
	return batch, err
}
