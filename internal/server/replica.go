package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"path"
	"sort"
	"strconv"

	"tesc"
	"tesc/api"
	"tesc/internal/replica"
	"tesc/internal/snapshot"
	"tesc/internal/wal"
)

// errNoReplication marks replication endpoints on a server without a
// WAL: log shipping needs a data directory to ship from.
var errNoReplication = errors.New("server: replication needs a data directory (-data)")

// replicaLog returns the open mutation WAL or errNoReplication.
func (s *Server) replicaLog() (*wal.Log, error) {
	if s.persist == nil {
		return nil, errNoReplication
	}
	lg := s.persist.log()
	if lg == nil {
		return nil, errNoReplication
	}
	return lg, nil
}

// replicaStatus reports the primary's graphs and retained log bounds.
// The graph epochs are read BEFORE the log end: with log-before-publish
// on the mutation path, every epoch visible here has its record at a
// position strictly before the End a follower will read — the ordering
// the follower's divergence detection depends on (see replica.Status).
func (s *Server) replicaStatus() (replica.Status, error) {
	lg, err := s.replicaLog()
	if err != nil {
		return replica.Status{}, err
	}
	var st replica.Status
	for _, name := range s.registry.Names() {
		if e, ok := s.registry.Get(name); ok {
			snap := e.Snapshot()
			st.Graphs = append(st.Graphs, replica.GraphStatus{
				Name:         name,
				Epoch:        snap.Epoch,
				GraphVersion: snap.GraphVersion,
				Monitors:     s.monitorFingerprint(name),
			})
		}
	}
	st.Oldest = lg.OldestCursor()
	st.End = lg.EndCursor()
	return st, nil
}

// replicaSnapshotPart cuts one graph's bootstrap image. The barrier is
// captured BEFORE the snapshot: a record landing between the two reads
// sits at or past the barrier AND inside the image, and the follower's
// epoch gate deduplicates it. The converse race — a record appended
// before the barrier whose publication the cut misses — is possible
// under concurrent mutation and leaves the follower one epoch short
// behind a barrier it will skip; the follower's re-bootstrap-on-anomaly
// rule (epoch gap or caught-up reconciliation) heals exactly this.
func (s *Server) replicaSnapshotPart(name string) (replica.SnapshotPart, error) {
	lg, err := s.replicaLog()
	if err != nil {
		return replica.SnapshotPart{}, err
	}
	barrier := lg.EndCursor()
	e, ok := s.registry.Get(name)
	if !ok {
		return replica.SnapshotPart{}, fmt.Errorf("%w: %q", replica.ErrUnknownGraph, name)
	}
	var buf bytes.Buffer
	if err := snapshot.Save(&buf, s.snapshotImage(name, e.Snapshot())); err != nil {
		return replica.SnapshotPart{}, fmt.Errorf("encoding snapshot of %q: %w", name, err)
	}
	return replica.SnapshotPart{Name: name, Data: buf.Bytes(), Barrier: barrier}, nil
}

// replicaPull ships WAL frames from cur.
func (s *Server) replicaPull(cur wal.ShipCursor, maxBytes int) (wal.ShipBatch, error) {
	lg, err := s.replicaLog()
	if err != nil {
		return wal.ShipBatch{}, err
	}
	batch, err := lg.Ship(cur, maxBytes)
	if err == nil {
		s.recordsShipped.Add(int64(batch.Records))
	}
	return batch, err
}

// ReplicaSource adapts a primary Server to replica.Transport for
// in-process followers — the server and replica tests replicate
// through it.
type ReplicaSource struct{ S *Server }

func (rs ReplicaSource) Status() (replica.Status, error) { return rs.S.replicaStatus() }
func (rs ReplicaSource) Snapshot(graph string) (replica.SnapshotPart, error) {
	return rs.S.replicaSnapshotPart(graph)
}
func (rs ReplicaSource) Pull(cur wal.ShipCursor, maxBytes int) (wal.ShipBatch, error) {
	return rs.S.replicaPull(cur, maxBytes)
}

// ---- replication HTTP endpoints (primary side) ----------------------

// handleReplicaStatus implements GET /v1/replica/status.
func (s *Server) handleReplicaStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.replicaStatus()
	if err != nil {
		api.WriteError(w, api.CodeUnavailable, "%v", err)
		return
	}
	out := api.ReplicaStatus{
		Oldest: api.LogCursor{Seg: st.Oldest.Seg, Off: st.Oldest.Off},
		End:    api.LogCursor{Seg: st.End.Seg, Off: st.End.Off},
	}
	for _, g := range st.Graphs {
		out.Graphs = append(out.Graphs, api.ReplicaGraphStatus{
			Name:         g.Name,
			Epoch:        g.Epoch,
			GraphVersion: g.GraphVersion,
			Monitors:     g.Monitors,
		})
	}
	api.WriteJSON(w, http.StatusOK, out)
}

// handleReplicaSnapshot implements
// GET /v1/replica/graphs/{name}/snapshot: the image bytes in the body,
// the barrier cursor in headers.
func (s *Server) handleReplicaSnapshot(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	part, err := s.replicaSnapshotPart(name)
	if err != nil {
		code := api.CodeUnavailable
		if errors.Is(err, replica.ErrUnknownGraph) {
			code = api.CodeNotFound
		}
		api.WriteError(w, code, "%v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	h.Set(replica.HeaderGraphName, part.Name)
	h.Set(replica.HeaderBarSeg, strconv.FormatUint(part.Barrier.Seg, 10))
	h.Set(replica.HeaderBarOff, strconv.FormatInt(part.Barrier.Off, 10))
	_, _ = w.Write(part.Data)
}

// handleReplicaWAL implements GET /v1/replica/wal?seg=&off=&max=: raw
// frame bytes in the body, cursor coordinates in headers.
func (s *Server) handleReplicaWAL(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	seg, err1 := strconv.ParseUint(q.Get("seg"), 10, 64)
	off, err2 := strconv.ParseInt(q.Get("off"), 10, 64)
	if err1 != nil || err2 != nil {
		api.WriteError(w, api.CodeBadRequest, "seg and off query parameters are required integers")
		return
	}
	maxBytes := 1 << 20
	if v := q.Get("max"); v != "" {
		if maxBytes, err1 = strconv.Atoi(v); err1 != nil || maxBytes <= 0 {
			api.WriteError(w, api.CodeBadRequest, "max must be a positive integer")
			return
		}
	}
	batch, err := s.replicaPull(wal.ShipCursor{Seg: seg, Off: off}, maxBytes)
	if err != nil {
		api.WriteError(w, api.CodeUnavailable, "%v", err)
		return
	}
	h := w.Header()
	h.Set("Content-Type", "application/octet-stream")
	if batch.TooOld {
		h.Set(replica.HeaderTooOld, "1")
		w.WriteHeader(http.StatusOK)
		return
	}
	h.Set(replica.HeaderStartSeg, strconv.FormatUint(batch.Start.Seg, 10))
	h.Set(replica.HeaderStartOff, strconv.FormatInt(batch.Start.Off, 10))
	h.Set(replica.HeaderNextSeg, strconv.FormatUint(batch.Next.Seg, 10))
	h.Set(replica.HeaderNextOff, strconv.FormatInt(batch.Next.Off, 10))
	h.Set(replica.HeaderRecords, strconv.Itoa(batch.Records))
	_, _ = w.Write(batch.Frames)
}

// ---- follower-side state --------------------------------------------

// FollowerState adapts the Server to replica.State, so every
// replicated record goes through the exact serialized mutation path —
// index migration, monitor notification, local WAL logging — that live
// requests and crash recovery use. A follower with a data directory is
// itself durable: its local WAL replays on restart and the replication
// cursor resumes from where it was saved.
func (s *Server) FollowerState() replica.State { return followerState{s} }

type followerState struct{ s *Server }

// cursorFile is the follower's persisted replication cursor, beside
// the snapshots and WAL segments in the data directory.
const cursorFile = "replica-cursor.json"

func (f followerState) Meta(name string) (uint64, uint64, bool) {
	e, ok := f.s.registry.Get(name)
	if !ok {
		return 0, 0, false
	}
	snap := e.Snapshot()
	return snap.Epoch, snap.GraphVersion, true
}

func (f followerState) Names() []string { return f.s.registry.Names() }

func (f followerState) Monitors(name string) uint64 { return f.s.monitorFingerprint(name) }

// monitorFingerprint hashes a graph's standing-query IDs,
// order-independently: primaries put it in GraphStatus, followers
// compare their own against it to notice monitor create/delete (which
// has no WAL record — monitors travel inside snapshot images).
func (s *Server) monitorFingerprint(name string) uint64 {
	states := s.monitors.States(name)
	ids := make([]string, len(states))
	for i, st := range states {
		ids[i] = st.Def.ID
	}
	sort.Strings(ids)
	h := fnv.New64a()
	for _, id := range ids {
		_, _ = h.Write([]byte(id))
		_, _ = h.Write([]byte{0})
	}
	return h.Sum64()
}

func (f followerState) Apply(r *wal.Record) error {
	e, ok := f.s.registry.Get(r.Graph)
	if !ok {
		return fmt.Errorf("%w: unknown graph %q", replica.ErrDiverged, r.Graph)
	}
	if err := f.s.applyRecord(e, r, true); err != nil {
		if errors.Is(err, errDurability) {
			return err // local trouble, retry the record later
		}
		// Only a fresh snapshot restores bit-for-bit agreement.
		return fmt.Errorf("%w: %v", replica.ErrDiverged, err)
	}
	return nil
}

func (f followerState) Drop(name string) error {
	_, err := f.s.dropGraph(name)
	return err
}

// Install replaces (or creates) a graph from a shipped snapshot image:
// drop any current generation (with a local drop record, so the
// follower's own recovery never replays old-generation records into the
// new one), restore, and checkpoint so the bootstrap itself is durable.
func (f followerState) Install(name string, data []byte) error {
	s := f.s
	snap, err := snapshot.Load(bytes.NewReader(data))
	if err != nil {
		return fmt.Errorf("decoding shipped snapshot of %q: %w", name, err)
	}
	if err := f.Drop(name); err != nil {
		return err
	}
	if _, err := s.restoreSnapshot(name, snap); err != nil {
		return err
	}
	// Drop left the dropped-graph sentinel in the durable map, which
	// would pin this graph's compaction cover forever; the incoming
	// generation starts a clean slate before the checkpoint records its
	// real epoch.
	if p := s.persist; p != nil {
		p.mu.Lock()
		delete(p.durable, name)
		p.mu.Unlock()
	}
	if err := s.durableAck(name); err != nil {
		return err
	}
	return nil
}

func (f followerState) SaveCursor(cur wal.ShipCursor) error {
	p := f.s.persist
	if p == nil {
		return nil
	}
	data, err := json.Marshal(cur)
	if err != nil {
		return err
	}
	// Atomic like a snapshot: a crash mid-save leaves the previous
	// cursor, never a torn one.
	_, err = wal.WriteFileAtomic(p.fs, path.Join(p.dir, cursorFile), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	return err
}

func (f followerState) LoadCursor() (wal.ShipCursor, bool) {
	p := f.s.persist
	if p == nil {
		return wal.ShipCursor{}, false
	}
	fl, err := p.fs.Open(path.Join(p.dir, cursorFile))
	if err != nil {
		return wal.ShipCursor{}, false
	}
	defer fl.Close()
	data, err := io.ReadAll(fl)
	if err != nil {
		return wal.ShipCursor{}, false
	}
	var cur wal.ShipCursor
	if err := json.Unmarshal(data, &cur); err != nil {
		return wal.ShipCursor{}, false
	}
	return cur, true
}

// AttachFollower hands the server the follower whose metrics healthz
// reports. Call before serving.
func (s *Server) AttachFollower(f *replica.Follower) { s.follower = f }

// restoreSnapshot registers a decoded snapshot under the given name:
// graph and event store with their persisted epoch stamps, vicinity
// indexes into the cache at the persisted graph version, monitors with
// their history rings. Shared by boot-time loads, admission-time
// imports and replication bootstraps.
func (s *Server) restoreSnapshot(name string, snap *snapshot.Snapshot) (*GraphEntry, error) {
	entry, err := s.registry.RegisterRestored(name, tesc.FromInternal(snap.Graph), snap.Store, snap.Epoch, snap.GraphVersion)
	if err != nil {
		return nil, err
	}
	cur := entry.Snapshot()
	for _, idx := range snap.Indexes {
		s.cache.Put(entry, cur, tesc.VicinityIndexFromInternal(idx))
	}
	// Standing queries come back with their history rings; the density
	// caches refill on the first post-restore re-screen. A monitor that
	// fails to restore (e.g. its events were persisted by a newer
	// writer) is skipped with a log line, like a bad snapshot file —
	// the graph must still serve.
	for _, st := range snap.Monitors {
		if _, err := s.monitors.Restore(name, st, entrySnapshotFunc(entry), entry.lendMemo); err != nil {
			s.logf("snapshot %s: monitor %q skipped: %v", name, st.Def.ID, err)
		}
	}
	s.snapLoaded.Add(1)
	return entry, nil
}
