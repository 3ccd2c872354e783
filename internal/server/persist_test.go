package server

import (
	"bytes"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"tesc"
	"tesc/internal/snapshot"
)

// persistEnv builds a server on the given data directory and registers
// the standard two-community graph and events through HTTP.
func newPersistEnv(t *testing.T, dir string, delay time.Duration) *testEnv {
	t.Helper()
	return newOverloadEnv(t, Config{DataDir: dir, CheckpointDelay: delay})
}

// health fetches the healthz counters.
func health(t *testing.T, env *testEnv) map[string]any {
	t.Helper()
	var h map[string]any
	env.do(t, http.StatusOK, "GET", "/healthz", nil, &h)
	return h
}

// runScreen starts a screening sweep and polls it to completion.
func runScreen(t *testing.T, env *testEnv) *ScreenResultView {
	t.Helper()
	var accepted screenResponse
	env.do(t, http.StatusAccepted, "POST", "/v1/graphs/g/screen",
		map[string]any{"h": 1, "sample_size": 200, "seed": 11}, &accepted)
	var view JobView
	deadline := time.Now().Add(30 * time.Second)
	for {
		env.do(t, http.StatusOK, "GET", "/v1/jobs/"+accepted.JobID, nil, &view)
		if view.Status == JobDone || view.Status == JobFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job still %s after 30s", view.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if view.Status != JobDone {
		t.Fatalf("screen job failed: %s", view.Error)
	}
	return view.Result
}

// TestRestartWarmStart is the tentpole e2e: register, mutate,
// checkpoint, boot a second server on the same data dir, and prove it
// serves identical results with zero index builds.
func TestRestartWarmStart(t *testing.T) {
	dir := t.TempDir()
	// An hour-long debounce so only the explicit checkpoint writes —
	// the test stays deterministic.
	env1 := newPersistEnv(t, dir, time.Hour)

	// Build the h=2 vicinity index via an importance-sampling query,
	// then mutate edges so the persisted state is a post-mutation epoch
	// with an incrementally repaired index.
	correlateBody := map[string]any{"a": "left", "b": "right", "h": 2, "method": "importance", "seed": 7}
	var cold correlateResponse
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", correlateBody, &cold)
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
		map[string]any{"insert": [][2]int{{0, 161}, {3, 170}}, "delete": [][2]int{{0, 1}}}, nil)
	var warm1 correlateResponse
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", correlateBody, &warm1)
	// warm1 read the pair's count memo, which the restart does not keep;
	// the same read with the memo dropped is the cold one to compare
	// the restarted server's first read with.
	entry, _ := env1.srv.Registry().Get("g")
	dropCounts(entry)
	var cold1 correlateResponse
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", correlateBody, &cold1)
	screen1 := runScreen(t, env1)

	var ck checkpointInfo
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/snapshot", nil, &ck)
	if ck.Bytes == 0 || len(ck.IndexLevels) != 1 || ck.IndexLevels[0] != 2 {
		t.Fatalf("checkpoint info %+v: want non-empty file carrying the h=2 index", ck)
	}
	if _, err := os.Stat(filepath.Join(dir, "g.tescsnap")); err != nil {
		t.Fatal(err)
	}
	var info1 graphInfo
	env1.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info1)
	if b := env1.srv.Cache().Builds(); b != 1 {
		t.Fatalf("server 1 built %d indexes, want 1", b)
	}

	// Second server, same data dir: the registry, event store, epoch
	// stamps and the repaired index must all come back from disk.
	env2 := newRestartedEnv(t, dir)
	h := health(t, env2)
	if h["snapshot_loaded"].(float64) != 1 {
		t.Fatalf("snapshot_loaded = %v, want 1", h["snapshot_loaded"])
	}
	var info2 graphInfo
	env2.do(t, http.StatusOK, "GET", "/v1/graphs/g", nil, &info2)
	if info2.Nodes != info1.Nodes || info2.Edges != info1.Edges ||
		info2.Events != info1.Events || info2.Epoch != info1.Epoch {
		t.Fatalf("restored graph info %+v != pre-restart %+v", info2, info1)
	}

	// The first index-backed query after boot must be served from the
	// loaded snapshot: identical answer, zero builds.
	var warm2 correlateResponse
	env2.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate", correlateBody, &warm2)
	warm1.ElapsedMS, cold1.ElapsedMS, warm2.ElapsedMS = 0, 0, 0
	if !reflect.DeepEqual(cold1, warm2) {
		t.Fatalf("correlate diverged across restart:\nbefore %+v\nafter  %+v", cold1, warm2)
	}
	// The memo changes only the traversals run.
	if warm1.DensityBFS > cold1.DensityBFS {
		t.Fatalf("memo-served read ran %d density traversals, the cold one %d", warm1.DensityBFS, cold1.DensityBFS)
	}
	warm1.DensityBFS = cold1.DensityBFS
	if !reflect.DeepEqual(warm1, cold1) {
		t.Fatalf("memo-served read %+v differs from the cold one %+v", warm1, cold1)
	}
	screen2 := runScreen(t, env2)
	if !reflect.DeepEqual(screen1, screen2) {
		t.Fatalf("screen diverged across restart:\nbefore %+v\nafter  %+v", screen1, screen2)
	}
	h = health(t, env2)
	if got := h["index_built"].(float64); got != 0 {
		t.Fatalf("index_built = %v after warm-start queries, want 0", got)
	}
}

// newRestartedEnv boots a server on an existing data directory without
// registering anything — the restart half of the e2e tests.
func newRestartedEnv(t *testing.T, dir string) *testEnv {
	t.Helper()
	srv := New(Config{IndexCacheCapacity: 4, DataDir: dir, CheckpointDelay: time.Hour})
	if _, err := srv.LoadData(); err != nil {
		t.Fatal(err)
	}
	return serve(srv)
}

// TestBootIgnoresTornAndCorruptFiles is the crash-safety case: a torn
// temp file (a checkpoint that died mid-write) and a corrupted
// snapshot must not block boot or register phantom graphs.
func TestBootIgnoresTornAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	env1 := newPersistEnv(t, dir, time.Hour)
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/snapshot", nil, nil)

	// A torn temp file exactly as snapshot.SaveFile would leave it.
	if err := os.WriteFile(filepath.Join(dir, "g.tescsnap.tmp-123"), []byte("TESCSNP1 torn mid-write"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A corrupted snapshot: valid prefix, truncated body.
	valid, err := os.ReadFile(filepath.Join(dir, "g.tescsnap"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.tescsnap"), valid[:len(valid)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	srv := New(Config{DataDir: dir})
	loaded, err := srv.LoadData()
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 {
		t.Fatalf("loaded %d graphs, want 1 (bad files skipped)", loaded)
	}
	if names := srv.Registry().Names(); len(names) != 1 || names[0] != "g" {
		t.Fatalf("registry names = %v, want [g]", names)
	}
	if got := srv.snapLoaded.Load(); got != 1 {
		t.Fatalf("snapshot_loaded = %d, want 1", got)
	}
}

// TestBackgroundCheckpoint proves the debounced dirty-set flush: a
// mutation alone, with no explicit checkpoint call, must produce a
// loadable snapshot file.
func TestBackgroundCheckpoint(t *testing.T) {
	dir := t.TempDir()
	env := newPersistEnv(t, dir, 20*time.Millisecond)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/edges",
		map[string]any{"insert": [][2]int{{0, 99}}}, nil)

	// Registration itself checkpoints synchronously (the durable ack),
	// so a snapshot file exists from the start; the debounced flush is
	// proven by the file eventually carrying the mutation.
	path := filepath.Join(dir, "g.tescsnap")
	deadline := time.Now().Add(10 * time.Second)
	var snap *snapshot.Snapshot
	for {
		var err error
		snap, err = snapshot.LoadFile(path)
		if err == nil && snap.Store.NumEvents() == 2 && snap.Graph.HasEdge(0, 99) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("background checkpoint never caught up (err=%v, snap=%+v)", err, snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if env.srv.snapSaved.Load() < 1 {
		t.Fatal("no checkpoint recorded")
	}
}

// TestDeleteGraphRemovesSnapshot ensures a deregistered graph cannot
// resurrect at the next boot.
func TestDeleteGraphRemovesSnapshot(t *testing.T) {
	dir := t.TempDir()
	env := newPersistEnv(t, dir, time.Hour)
	env.do(t, http.StatusOK, "POST", "/v1/graphs/g/snapshot", nil, nil)
	env.do(t, http.StatusNoContent, "DELETE", "/v1/graphs/g", nil, nil)
	if _, err := os.Stat(filepath.Join(dir, "g.tescsnap")); !os.IsNotExist(err) {
		t.Fatalf("snapshot survived graph deletion: %v", err)
	}
	srv := New(Config{DataDir: dir})
	if loaded, err := srv.LoadData(); err != nil || loaded != 0 {
		t.Fatalf("deleted graph came back: loaded=%d err=%v", loaded, err)
	}
}

// TestSnapshotImportAtAdmission registers a graph directly from a
// snapshot file — the admission-time import endpoint — and proves the
// persisted index serves the first query with zero builds.
func TestSnapshotImportAtAdmission(t *testing.T) {
	dir := t.TempDir()
	env1 := newPersistEnv(t, dir, time.Hour)
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/correlate",
		map[string]any{"a": "left", "b": "right", "h": 2, "method": "importance", "seed": 7}, nil)
	env1.do(t, http.StatusOK, "POST", "/v1/graphs/g/snapshot", nil, nil)

	env2 := serve(New(Config{IndexCacheCapacity: 4}))
	var info graphInfo
	env2.do(t, http.StatusCreated, "POST", "/v1/graphs",
		map[string]any{"name": "imported", "snapshot": filepath.Join(dir, "g.tescsnap")}, &info)
	if info.Events != 2 {
		t.Fatalf("imported %d events, want 2", info.Events)
	}
	env2.do(t, http.StatusOK, "POST", "/v1/graphs/imported/correlate",
		map[string]any{"a": "left", "b": "right", "h": 2, "method": "importance", "seed": 7}, nil)
	if b := env2.srv.Cache().Builds(); b != 0 {
		t.Fatalf("import-backed query built %d indexes, want 0", b)
	}
	// Conflicting and bogus imports fail cleanly.
	env2.do(t, http.StatusConflict, "POST", "/v1/graphs",
		map[string]any{"name": "imported", "snapshot": filepath.Join(dir, "g.tescsnap")}, nil)
	env2.do(t, http.StatusBadRequest, "POST", "/v1/graphs",
		map[string]any{"name": "x", "snapshot": filepath.Join(dir, "missing.tescsnap")}, nil)
	env2.do(t, http.StatusBadRequest, "POST", "/v1/graphs",
		map[string]any{"name": "x", "snapshot": "s", "edge_list": "0 1"}, nil)
}

// TestCheckpointDuringRefreshKeepsIndexes: a checkpoint that runs while
// an edge mutation has migrated the indexes but not yet published
// persists the published snapshot together with that snapshot's own
// indexes, so the restarted node needs no index build.
func TestCheckpointDuringRefreshKeepsIndexes(t *testing.T) {
	srv := New(Config{IndexCacheCapacity: 4, DataDir: t.TempDir(), CheckpointDelay: time.Hour})
	if _, err := srv.LoadData(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	e, err := srv.registry.Register("g", testGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	published := e.Snapshot()
	if _, err := srv.cache.Get(e, published, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.MutateEdges([]tesc.EdgeChange{{U: 0, V: 3, Insert: true}},
		func(old, next Snapshot, applied []tesc.EdgeChange) error {
			srv.cache.Refresh(old, next, internalChanges(applied), 1)
			_, err := srv.Checkpoint("g")
			return err
		}); err != nil {
		t.Fatal(err)
	}
	snap, err := snapshot.LoadFile(srv.persist.snapshotPath("g"))
	if err != nil {
		t.Fatal(err)
	}
	if snap.GraphVersion != published.GraphVersion {
		t.Fatalf("checkpoint at graph version %d, want the published %d", snap.GraphVersion, published.GraphVersion)
	}
	if len(snap.Indexes) != 1 || snap.Indexes[0].MaxLevel() != 2 {
		t.Fatalf("checkpoint persisted %d indexes, want the published version's level-2 index", len(snap.Indexes))
	}
}

// lockedLog collects a server's log lines; handlers may log while the
// test reads.
type lockedLog struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestBootstrapImageIsTheCheckpoint: a replica bootstrap ships the
// bytes a checkpoint writes at the same epoch — graph, events, monitor
// states and every index the format holds — and both paths drop and
// log an index deeper than the format's limit.
func TestBootstrapImageIsTheCheckpoint(t *testing.T) {
	logs := new(lockedLog)
	env := newOverloadEnv(t, Config{DataDir: t.TempDir(), CheckpointDelay: time.Hour, Log: log.New(logs, "", 0)})
	env.do(t, http.StatusCreated, "POST", "/v1/graphs/g/monitors",
		map[string]any{"a": "left", "b": "right", "h": 1, "sample_size": 40, "policy": "manual"}, nil)
	e, _ := env.srv.registry.Get("g")
	for _, level := range []int{2, snapshot.MaxVicinityLevels + 1} {
		if _, err := env.srv.cache.Get(e, e.Snapshot(), level, 1); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := env.srv.Checkpoint("g")
	if err != nil {
		t.Fatal(err)
	}
	part, err := env.srv.replicaSnapshotPart("g")
	if err != nil {
		t.Fatal(err)
	}
	file, err := os.ReadFile(ck.Path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(part.Data, file) {
		t.Fatalf("bootstrap image (%d B) differs from the checkpoint file (%d B) at epoch %d", len(part.Data), len(file), ck.Epoch)
	}
	if !reflect.DeepEqual(ck.IndexLevels, []int{2}) || ck.Monitors != 1 {
		t.Fatalf("checkpoint carries index levels %v and %d monitors, want [2] and 1", ck.IndexLevels, ck.Monitors)
	}
	if n := strings.Count(logs.String(), "dropping vicinity index"); n != 2 {
		t.Fatalf("%d logged index drops, want one per path:\n%s", n, logs.String())
	}
}
