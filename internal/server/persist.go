package server

import (
	"fmt"
	"math"
	"net/url"
	"path"
	"sort"
	"strings"
	"sync"
	"time"

	"tesc/api"
	"tesc/internal/snapshot"
	"tesc/internal/wal"
)

// snapExt is the extension of snapshot files in the data directory.
// Boot-time scans load only files with exactly this suffix, which is
// what makes atomic writes crash-safe: snapshot.SaveFileFS's temp
// files carry a ".tmp-*" suffix and WAL segments a ".tesclog" one, so
// a crash mid-checkpoint leaves a torn file the next boot never even
// opens as a snapshot.
const snapExt = ".tescsnap"

// persistState is the serving tier's durable-state machinery: a data
// directory of one snapshot file per registered graph, a mutation WAL
// covering the gap between checkpoints, and the dirty-set debouncer
// that checkpoints mutated entries in the background. Nil on a Server
// without Config.DataDir.
type persistState struct {
	dir   string
	delay time.Duration

	// fs is the filesystem every byte of durable state goes through;
	// tests inject wal.FaultFS to crash it at any operation.
	fs wal.FS

	walPolicy   wal.Policy
	walInterval time.Duration
	walSegBytes int64

	mu    sync.Mutex
	dirty map[string]struct{}
	timer *time.Timer
	// wal is the mutation log, open from LoadData onward.
	wal *wal.Log
	// durable maps graph → last epoch a durable checkpoint captured;
	// it is the WAL compaction cover. droppedEpoch marks deregistered
	// graphs: everything the log ever held for them is covered.
	durable map[string]uint64
	// dead is set by Kill: the server is simulating a crash, so no
	// background flush may touch the filesystem anymore.
	dead bool

	// flushMu serializes whole flush passes. The shutdown flush must
	// block behind a background flush already checkpointing on the
	// debounce timer's goroutine — otherwise it sees an already-drained
	// dirty set, returns immediately, and the process exits while the
	// in-flight snapshot write is still short of its rename.
	flushMu sync.Mutex

	// ioMu serializes snapshot-file writes against removals. A
	// background checkpoint that has already resolved its entry must
	// not recreate the file of a graph a concurrent DELETE just
	// deregistered — Checkpoint re-validates registration under this
	// lock before writing, and removeSnapshot unlinks under it.
	ioMu sync.Mutex
}

// droppedEpoch is the durable-map sentinel for a deregistered graph:
// no record of it needs the log anymore.
const droppedEpoch = math.MaxUint64

// log returns the mutation WAL, or nil before LoadData has opened it.
func (p *persistState) log() *wal.Log {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.wal
}

// snapshotPath maps a registry name to its snapshot file. Names are
// URL-escaped so arbitrary registry names (slashes included) can never
// traverse outside the data directory.
func (p *persistState) snapshotPath(name string) string {
	return path.Join(p.dir, url.PathEscape(name)+snapExt)
}

// snapshotName inverts snapshotPath for a directory entry, reporting
// false for files that are not snapshots.
func snapshotName(fileName string) (string, bool) {
	base, ok := strings.CutSuffix(fileName, snapExt)
	if !ok || base == "" {
		return "", false
	}
	name, err := url.PathUnescape(base)
	if err != nil {
		return "", false
	}
	return name, true
}

// LoadData restores the data directory into the registry and index
// cache — every snapshot, then the WAL tail replayed on top — and
// opens the mutation log for new appends, creating the directory if
// needed. It returns the number of graphs restored. A snapshot file
// that fails validation (torn, corrupted, foreign) is skipped with a
// log line — one bad file must not keep the daemon from serving the
// good ones — and a torn WAL segment replays up to its tear, the
// segments after it in full, while a corrupt frame ends the replay; a
// missing or unreadable directory is a real error.
func (s *Server) LoadData() (int, error) {
	p := s.persist
	if p == nil {
		return 0, fmt.Errorf("server: no data directory configured")
	}
	if err := p.fs.MkdirAll(p.dir); err != nil {
		return 0, err
	}
	entries, err := p.fs.ReadDir(p.dir)
	if err != nil {
		return 0, err
	}
	loaded := 0
	for _, fileName := range entries {
		name, ok := snapshotName(fileName)
		if !ok {
			continue // temp files, WAL segments, foreign files
		}
		entry, err := s.loadSnapshotFile(name, path.Join(p.dir, fileName))
		if err != nil {
			s.logf("snapshot %s: skipped: %v", fileName, err)
			continue
		}
		p.mu.Lock()
		p.durable[name] = entry.Epoch()
		p.mu.Unlock()
		loaded++
	}
	lg, recovered, err := wal.Open(p.dir, wal.Options{
		FS:           p.fs,
		Policy:       p.walPolicy,
		Interval:     p.walInterval,
		SegmentBytes: p.walSegBytes,
	})
	if err != nil {
		return loaded, fmt.Errorf("opening wal: %w", err)
	}
	if recovered.Torn {
		s.logf("wal: torn segment: %v (replaying the %d intact records)", recovered.TornErr, len(recovered.Records))
	}
	// Replay BEFORE publishing the log for appends: the replayed
	// records are already durable in the old segments, and re-logging
	// them would double every mutation at the next recovery.
	s.replayWAL(recovered.Records)
	p.mu.Lock()
	p.wal = lg
	p.mu.Unlock()
	return loaded, nil
}

// loadSnapshotFile restores one snapshot file under the given registry
// name — so the first index-backed query after boot is a cache hit,
// not a build. It returns the registered entry.
func (s *Server) loadSnapshotFile(name, path string) (*GraphEntry, error) {
	fsys := wal.FS(wal.OSFS{})
	if s.persist != nil {
		fsys = s.persist.fs
	}
	snap, err := snapshot.LoadFileFS(fsys, path)
	if err != nil {
		return nil, err
	}
	return s.restoreSnapshot(name, snap)
}

// markDirty schedules a background checkpoint of the named graph. The
// dirty set debounces: a burst of mutation batches within the
// checkpoint delay folds into one snapshot write.
func (s *Server) markDirty(name string) {
	p := s.persist
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.dead {
		return
	}
	p.dirty[name] = struct{}{}
	if p.timer == nil {
		p.timer = time.AfterFunc(p.delay, s.flushDirty)
	}
}

// flushDirty checkpoints every dirty entry, then compacts the WAL:
// segments whose every record a durable checkpoint now covers are
// deleted. Runs on the debounce timer's goroutine; mutations landing
// mid-flush re-mark and re-arm. The active segment is rotated first so
// the records this pass is about to cover sit in frozen segments
// compaction may delete.
func (s *Server) flushDirty() {
	p := s.persist
	p.flushMu.Lock()
	defer p.flushMu.Unlock()
	p.mu.Lock()
	if p.dead {
		p.mu.Unlock()
		return
	}
	lg := p.wal
	names := make([]string, 0, len(p.dirty))
	for name := range p.dirty {
		names = append(names, name)
	}
	p.dirty = make(map[string]struct{})
	p.timer = nil
	p.mu.Unlock()

	if lg != nil {
		if err := lg.Rotate(); err != nil {
			s.logf("wal rotate: %v", err)
		}
	}
	sort.Strings(names)
	// Checkpoint writes are background-class work: borrow a slot so the
	// flush queues behind client screen jobs instead of competing with
	// them for cores — but only briefly. Past the timeout the flush
	// proceeds ungated: durability outranks prioritization, and a
	// saturated gate must never wedge shutdown (FlushSnapshots runs
	// through here while draining).
	releaseBG := s.adm.acquireBackground(2 * time.Second)
	defer releaseBG()
	for _, name := range names {
		if _, err := s.Checkpoint(name); err != nil {
			s.logf("checkpoint %q: %v", name, err)
			// A transient write failure (ENOSPC, EIO) must not lose the
			// mutation: re-mark so the next flush retries. A graph that
			// is simply gone (deregistered) stays dropped.
			if _, stillRegistered := s.registry.Get(name); stillRegistered {
				s.markDirty(name)
			}
		}
	}
	if lg != nil {
		p.mu.Lock()
		cover := make(map[string]uint64, len(p.durable))
		for name, epoch := range p.durable {
			cover[name] = epoch
		}
		p.mu.Unlock()
		if _, err := lg.Compact(cover); err != nil {
			s.logf("wal compact: %v", err)
		}
	}
}

// FlushSnapshots synchronously checkpoints every dirty entry — the
// shutdown path, so mutations applied just before SIGTERM survive the
// restart.
func (s *Server) FlushSnapshots() {
	if s.persist == nil {
		return
	}
	s.flushDirty()
}

// checkpointInfo describes one written snapshot, both the
// POST /v1/graphs/{name}/snapshot response and the tescd log line.
type checkpointInfo = api.CheckpointInfo

// Checkpoint writes the named graph's current snapshot — graph, event
// store, and the cached vicinity indexes at the current graph version
// — to the data directory, atomically (temp file + rename + directory
// fsync). The entry is read through its epoch snapshot, so a
// checkpoint racing a mutation persists one consistent version, never
// a torn mix. An index deeper than the format's level cap is left out
// (the graph and events still persist) rather than failing the whole
// checkpoint. On success the checkpoint epoch joins the WAL compaction
// cover and a checkpoint stamp is appended to the log.
func (s *Server) Checkpoint(name string) (checkpointInfo, error) {
	p := s.persist
	if p == nil {
		return checkpointInfo{}, fmt.Errorf("server: no data directory configured")
	}
	// Everything happens under ioMu: the registration check guards
	// against a concurrent DELETE resurrecting the file, and reading
	// the epoch snapshot inside the lock guards against two interleaved
	// checkpoints writing out of order — a stale reader that snapshots
	// the entry, loses the lock race, and then writes would roll the
	// file back to a version the dirty set no longer remembers.
	p.ioMu.Lock()
	defer p.ioMu.Unlock()
	entry, ok := s.registry.Get(name)
	if !ok {
		return checkpointInfo{}, fmt.Errorf("unknown graph %q", name)
	}
	cur := entry.Snapshot()
	img := s.snapshotImage(name, cur)
	path := p.snapshotPath(name)
	bytes, err := snapshot.SaveFileFS(p.fs, path, img)
	if err != nil {
		return checkpointInfo{}, err
	}
	s.snapSaved.Add(1)
	// The snapshot is durable: its epoch now covers this graph's log
	// records for compaction. The durable map only moves forward — a
	// dropped graph's sentinel must not be demoted by a racing stale
	// checkpoint.
	p.mu.Lock()
	if cur.Epoch > p.durable[name] && p.durable[name] != droppedEpoch {
		p.durable[name] = cur.Epoch
	}
	lg := p.wal
	p.mu.Unlock()
	if lg != nil {
		// Best-effort observability stamp; durability does not depend
		// on it (the cover map is authoritative).
		if err := lg.Append(&wal.Record{Kind: wal.KindCheckpoint, Graph: name, Epoch: cur.Epoch}); err != nil {
			s.logf("wal checkpoint stamp %q: %v", name, err)
		}
	}
	info := checkpointInfo{
		Graph:        name,
		Path:         path,
		Bytes:        bytes,
		Epoch:        cur.Epoch,
		GraphVersion: cur.GraphVersion,
		Events:       cur.Store.NumEvents(),
		Monitors:     len(img.Monitors),
	}
	for _, idx := range img.Indexes {
		info.IndexLevels = append(info.IndexLevels, idx.MaxLevel())
	}
	return info, nil
}

// snapshotImage is the image of the graph's snapshot cur that a
// checkpoint writes and a replica bootstrap ships: the graph, the
// store, both epoch stamps, the monitors' states and every completed
// vicinity index the format can hold. A deeper index is dropped and
// logged; whoever loads the image rebuilds it on demand.
func (s *Server) snapshotImage(name string, cur Snapshot) *snapshot.Snapshot {
	img := &snapshot.Snapshot{
		Graph:        cur.Graph.Internal(),
		Store:        cur.Store,
		Epoch:        cur.Epoch,
		GraphVersion: cur.GraphVersion,
		Monitors:     s.monitors.States(name),
	}
	for _, idx := range s.cache.indexes(cur) {
		if idx.MaxLevel() > snapshot.MaxVicinityLevels {
			s.logf("snapshot of %q: dropping vicinity index with max level %d (format limit %d)", name, idx.MaxLevel(), snapshot.MaxVicinityLevels)
			continue
		}
		img.Indexes = append(img.Indexes, idx.Internal())
	}
	return img
}

// removeSnapshot deletes the named graph's snapshot file and clears
// its dirty mark, so a deregistered graph cannot resurrect at the next
// boot (or be re-written by a pending background checkpoint). The
// graph's WAL records are marked covered — nothing of a dropped graph
// needs the log.
func (s *Server) removeSnapshot(name string) {
	p := s.persist
	if p == nil {
		return
	}
	p.mu.Lock()
	delete(p.dirty, name)
	p.durable[name] = droppedEpoch
	p.mu.Unlock()
	// Under ioMu: an in-flight Checkpoint either finished its write
	// (the file is removed here) or has not re-validated yet (it will
	// see the deregistration and abort). Callers remove the registry
	// entry before calling this.
	p.ioMu.Lock()
	defer p.ioMu.Unlock()
	if err := p.fs.Remove(p.snapshotPath(name)); err != nil && !p.fs.IsNotExist(err) {
		s.logf("removing snapshot of %q: %v", name, err)
		return
	}
	if err := p.fs.SyncDir(p.dir); err != nil {
		s.logf("syncing data dir after removing %q: %v", name, err)
	}
}

// logf logs through the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.logger != nil {
		s.logger.Printf(format, args...)
	}
}
