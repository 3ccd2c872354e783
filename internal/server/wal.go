package server

import (
	"errors"
	"fmt"
	"slices"

	"tesc"
	"tesc/internal/graph"
	"tesc/internal/vicinity"
	"tesc/internal/wal"
)

// errDurability marks mutation failures caused by the durability
// layer (WAL append or synchronous checkpoint), not by the request;
// handlers map it to 503 instead of 4xx. A mutation that cannot be
// logged is never applied and never acknowledged — fail closed.
var errDurability = errors.New("durability unavailable")

// walChanges converts applied public edge changes to WAL records.
func walChanges(changes []tesc.EdgeChange) []wal.EdgeChange {
	out := make([]wal.EdgeChange, len(changes))
	for i, c := range changes {
		out[i] = wal.EdgeChange{U: c.U, V: c.V, Insert: c.Insert}
	}
	return out
}

// publicChanges is walChanges' inverse, for replay.
func publicChanges(changes []wal.EdgeChange) []tesc.EdgeChange {
	out := make([]tesc.EdgeChange, len(changes))
	for i, c := range changes {
		out[i] = tesc.EdgeChange{U: c.U, V: c.V, Insert: c.Insert}
	}
	return out
}

// walAppend logs one record through the mutation WAL. A nil return on
// a SyncAlways log means the record is durable. Without a data dir —
// or before LoadData has opened the log — appends are no-ops and the
// server runs at the pre-WAL durability level (debounced snapshots
// only).
func (s *Server) walAppend(rec *wal.Record) error {
	p := s.persist
	if p == nil {
		return nil
	}
	lg := p.log()
	if lg == nil {
		return nil
	}
	return lg.Append(rec)
}

// edgeMutation is one durable edge-batch application.
type edgeMutation struct {
	snap       Snapshot
	applied    []tesc.EdgeChange
	migrated   int
	recomputed int
}

// applyEdges is the single serialized edge-mutation path: WAL append
// (log-before-publish), index-cache migration, monitor notification,
// publication, dirty mark. Both the HTTP handler (logIt=true) and WAL
// replay (logIt=false — the records being replayed ARE the log) go
// through it, so recovery exercises exactly the code production runs.
func (s *Server) applyEdges(e *GraphEntry, changes []tesc.EdgeChange, logIt bool) (edgeMutation, error) {
	var res edgeMutation
	snap, applied, err := e.MutateEdges(changes, func(old, next Snapshot, applied []tesc.EdgeChange) error {
		if logIt {
			// The append comes first so that a mutation that cannot be
			// made durable aborts before it pays for the index repair;
			// the repaired indexes would die unused with the aborted
			// version's state.
			if err := s.walAppend(&wal.Record{
				Kind:         wal.KindEdges,
				Graph:        e.Name(),
				Epoch:        next.Epoch,
				GraphVersion: next.GraphVersion,
				Changes:      walChanges(applied),
			}); err != nil {
				return fmt.Errorf("%w: wal append: %v", errDurability, err)
			}
		}
		flips := internalChanges(applied)
		var repaired []graph.NodeID
		var level int
		res.migrated, res.recomputed, repaired, level = s.cache.Refresh(old, next, flips, s.indexWorkers)
		e.advanceMemos(old.Epoch, next.Epoch, edgeDirty(old, next, flips, repaired, level))
		// Standing queries are notified inside the serialized mutation
		// path, before the successor snapshot publishes: no re-screen
		// can bind the new epoch without its batch queued.
		s.monitors.Notify(e.Name(), nil, next.Epoch)
		return nil
	})
	if err != nil {
		return res, err
	}
	res.snap, res.applied = snap, applied
	if len(applied) > 0 {
		s.markDirty(e.Name())
	}
	return res, nil
}

// applyEvents is applyEdges' twin for event mutations.
func (s *Server) applyEvents(e *GraphEntry, add, remove map[string][]int, logIt bool) error {
	err := e.MutateEventsNotify(add, remove, func(changed map[string][]graph.NodeID, nextEpoch uint64) error {
		if logIt {
			if err := s.walAppend(&wal.Record{
				Kind:   wal.KindEvents,
				Graph:  e.Name(),
				Epoch:  nextEpoch,
				Add:    add,
				Remove: remove,
			}); err != nil {
				return fmt.Errorf("%w: wal append: %v", errDurability, err)
			}
		}
		// Mutations are serialized: e still publishes the old epoch.
		e.advanceMemos(nextEpoch-1, nextEpoch, eventDirty(e.Snapshot(), changed))
		s.monitors.Notify(e.Name(), changed, nextEpoch)
		return nil
	})
	if err != nil {
		return err
	}
	s.markDirty(e.Name())
	return nil
}

// dirtyFunc returns the dirty set of a mutation for a memo at level h
// over events: the nodes whose densities may differ between the two
// versions, or all when any node's may.
type dirtyFunc func(h int, events []string) (dirty []graph.NodeID, all bool)

// advanceMemos carries every memo the entry retains, density and count
// memos alike, from epoch from to epoch to, dropping each one's dirty
// set. The mutation paths call it before they publish to. The memos
// are listed under the registry's memo lock and advanced outside it,
// so no ball traversal holds up another graph's reads. A count memo
// that cannot advance (it is not at from, or any node may be dirty)
// is dropped.
func (e *GraphEntry) advanceMemos(from, to uint64, dirty dirtyFunc) {
	for _, r := range e.heldMemos() {
		nodes, all := dirty(r.key.h, r.events)
		switch {
		case r.dense != nil:
			r.dense.Advance(to, nodes, all)
		case all || !r.counts.Advance(from, to, nodes):
			e.memos.drop(r)
		}
	}
}

// edgeDirty is an edge batch's dirtyFunc. At a level the index
// repair's set covers, it is that set; at any other level it is one
// vicinity.DirtySet, computed once per level on engines from the two
// versions' pools.
func edgeDirty(old, next Snapshot, flips []graph.EdgeChange, repaired []graph.NodeID, repairedLevel int) dirtyFunc {
	byLevel := make(map[int][]graph.NodeID)
	return func(h int, _ []string) ([]graph.NodeID, bool) {
		if repaired != nil && repairedLevel >= h {
			return repaired, false
		}
		if d, ok := byLevel[h]; ok {
			return d, false
		}
		d, err := vicinity.DirtySet(old.Graph.Internal(), next.Graph.Internal(), flips, h,
			old.state.pool.Internal(), next.state.pool.Internal())
		if err != nil {
			return nil, true
		}
		byLevel[h] = d
		return d, false
	}
}

// eventDirty is an event mutation's dirtyFunc on snap, the graph both
// versions share. A memo over a changed event drops the reverse h-ball
// around the changed occurrences, the nodes whose h-vicinity holds
// one, computed once per level; other memos drop nothing.
func eventDirty(snap Snapshot, changed map[string][]graph.NodeID) dirtyFunc {
	var sources []graph.NodeID
	for _, nodes := range changed {
		sources = append(sources, nodes...)
	}
	byLevel := make(map[int][]graph.NodeID)
	return func(h int, events []string) ([]graph.NodeID, bool) {
		if !slices.ContainsFunc(events, func(name string) bool { _, ok := changed[name]; return ok }) {
			return nil, false
		}
		if _, ok := byLevel[h]; !ok {
			g, pool := snap.Graph.Internal(), snap.state.pool.Internal()
			bfs := pool.Acquire(g)
			byLevel[h] = bfs.SetVicinity(sources, h, nil)
			pool.Put(bfs)
		}
		return byLevel[h], false
	}
}

// applyRecord is the one record applier boot replay and replication
// share: it applies a logged KindEdges or KindEvents record to e
// through applyEdges/applyEvents, re-logging it when logIt is set (a
// follower's own WAL; replay passes false — the record IS the log). The
// record must extend e's chain: epoch == current+1, for edges graph
// version == current+1, every logged change takes effect, and e lands
// on the record's epoch. Any violation is an error; an errDurability
// error from the append passes through as is.
func (s *Server) applyRecord(e *GraphEntry, r *wal.Record, logIt bool) error {
	cur := e.Snapshot()
	if r.Epoch != cur.Epoch+1 {
		return fmt.Errorf("epoch gap (log %d after entry %d)", r.Epoch, cur.Epoch)
	}
	switch r.Kind {
	case wal.KindEdges:
		if r.GraphVersion != cur.GraphVersion+1 {
			return fmt.Errorf("graph version gap (log %d after entry %d)", r.GraphVersion, cur.GraphVersion)
		}
		res, err := s.applyEdges(e, publicChanges(r.Changes), logIt)
		if err != nil {
			return err
		}
		if len(res.applied) != len(r.Changes) {
			// A change that is a no-op here took effect where it was
			// logged: the graphs differ.
			return fmt.Errorf("logged %d changes, %d took effect", len(r.Changes), len(res.applied))
		}
	case wal.KindEvents:
		if err := s.applyEvents(e, r.Add, r.Remove, logIt); err != nil {
			return err
		}
	default:
		return fmt.Errorf("%v record is not a mutation", r.Kind)
	}
	if got := e.Epoch(); got != r.Epoch {
		return fmt.Errorf("logged epoch %d, entry landed on %d", r.Epoch, got)
	}
	return nil
}

// dropGraph deregisters a graph with everything attached to it — the
// teardown DELETE and a replicated drop share. The drop record is
// logged before anything is removed: a crash right after the registry
// removal must not let this generation's WAL records replay into a
// future graph registered under the same name. A spurious drop record
// (the Get/Remove race losing to another drop) is harmless — replay
// only skips records. It reports whether the graph was registered.
func (s *Server) dropGraph(name string) (bool, error) {
	if cur, ok := s.registry.Get(name); ok {
		if err := s.walAppend(&wal.Record{Kind: wal.KindDrop, Graph: name, Epoch: cur.Epoch()}); err != nil {
			return false, fmt.Errorf("%w: wal append: %v", errDurability, err)
		}
	}
	e, ok := s.registry.Remove(name)
	if !ok {
		return false, nil
	}
	s.cache.EvictGraph(e)
	s.monitors.DropGraph(name)
	s.removeSnapshot(name)
	return true, nil
}

// durableAck makes a non-logged structural change (graph registration,
// monitor create/delete) durable before the response acknowledges it.
// With the WAL open these rare operations checkpoint synchronously —
// they have no WAL record kind, and a snapshot write is their natural
// durability unit; without it (no -data, or before LoadData) they fall
// back to the debounced dirty mark.
func (s *Server) durableAck(name string) error {
	p := s.persist
	if p == nil {
		return nil
	}
	if p.log() == nil {
		s.markDirty(name)
		return nil
	}
	if _, err := s.Checkpoint(name); err != nil {
		return fmt.Errorf("%w: checkpoint: %v", errDurability, err)
	}
	return nil
}

// replayWAL applies the recovered log tail on top of the snapshot
// state through applyRecord, the applier replication uses too (index
// migration and monitor notification included). Records a snapshot
// already covers (epoch ≤ the restored entry's) are skipped; a gap or
// application failure halts replay for that graph only — its state
// stays at the last consistent epoch, other graphs recover fully.
// Records older than a graph's last KindDrop belong to a previous
// generation of the name and are never replayed into its successor.
// A failed append that the acknowledged retry superseded — possibly
// whole on disk after a failed fsync — never reaches replay: wal.Open
// drops it.
func (s *Server) replayWAL(records []wal.Record) {
	lastDrop := make(map[string]int)
	for i := range records {
		if r := &records[i]; r.Kind == wal.KindDrop {
			lastDrop[r.Graph] = i
		}
	}
	halted := make(map[string]bool)
	for i := range records {
		r := &records[i]
		if r.Kind != wal.KindEdges && r.Kind != wal.KindEvents {
			continue
		}
		if j, dropped := lastDrop[r.Graph]; dropped && i < j {
			continue
		}
		if halted[r.Graph] {
			continue
		}
		e, ok := s.registry.Get(r.Graph)
		if !ok {
			// No snapshot restored the graph: either it was dropped
			// (its records are stale) or its registration checkpoint
			// was lost with the crash — in which case the client never
			// saw a 201 and there is nothing to recover.
			continue
		}
		if r.Epoch <= e.Epoch() {
			continue // the snapshot already contains this mutation
		}
		if err := s.applyRecord(e, r, false); err != nil {
			s.logf("wal: %s: replaying epoch %d: %v; halting replay for this graph", r.Graph, r.Epoch, err)
			halted[r.Graph] = true
			continue
		}
		s.walReplayed.Add(1)
	}
	// recovery_epoch: the highest epoch any graph reached after
	// snapshot + log tail — the "exact pre-crash epoch" healthz
	// advertises.
	var maxEpoch uint64
	for _, name := range s.registry.Names() {
		if e, ok := s.registry.Get(name); ok && e.Epoch() > maxEpoch {
			maxEpoch = e.Epoch()
		}
	}
	s.recoveryEpoch.Store(maxEpoch)
}

// Kill abandons the server's durable machinery without flushing —
// the crash-test half of Close. Pending dirty marks are dropped,
// debounce timers stopped, the WAL abandoned unsynced. Used by the
// fault-injection tests to die mid-debounce; production crashes
// simply... crash.
func (s *Server) Kill() {
	p := s.persist
	if p == nil {
		return
	}
	p.mu.Lock()
	p.dead = true
	if p.timer != nil {
		p.timer.Stop()
		p.timer = nil
	}
	lg := p.wal
	p.mu.Unlock()
	if lg != nil {
		lg.Kill()
	}
}

// Close flushes pending checkpoints and closes the WAL — the graceful
// shutdown path. Ordering matters and is pinned by a regression test:
// the flush (which checkpoints, then compacts covered segments) fully
// precedes the log close, so at no instant is a mutation in neither a
// durable snapshot nor a live log segment.
func (s *Server) Close() {
	s.FlushSnapshots()
	p := s.persist
	if p == nil {
		return
	}
	if lg := p.log(); lg != nil {
		lg.Close()
	}
}
