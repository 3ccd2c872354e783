// Package replica implements log-shipping replication for tescd: a
// primary streams its mutation WAL (raw CRC-framed record bytes,
// addressed by wal.ShipCursor) to read-only followers, which bootstrap
// per graph from .tescsnap snapshot images and then apply the log tail
// through the identical registry-mutation path live requests use.
//
// The protocol is pull-based and stateless on the primary: a follower
// asks for Status (graph epochs plus the retained log bounds), fetches
// per-graph Snapshot images when it is missing a graph or has diverged,
// and Pulls frames from its cursor. Three rules make the follower
// immune to any combination of dropped, delayed, duplicated, reordered,
// truncated or corrupted replies (see docs/REPLICATION.md):
//
//   - echo discard: every pull echoes the requested cursor, and the
//     follower drops replies that do not match its current cursor —
//     stale and duplicated replies can never be consumed;
//   - epoch gating: a record applies only when it extends the graph's
//     epoch chain by exactly one; anything older is a duplicate and
//     skipped, so nothing ever applies twice;
//   - re-bootstrap on anomaly: an epoch gap, a graph-version mismatch,
//     or a cursor that predates the primary's retained log (compaction
//     won) re-installs that graph from a fresh snapshot whose barrier
//     cursor skips the log prefix the snapshot already contains —
//     progress is always possible, whatever the log holds.
//
// All replication I/O goes through the Transport interface, mirroring
// how wal.FS injects the filesystem: HTTPTransport in production, a
// deterministic seeded fault injector wrapping any transport in the
// differential sweep that proves the subsystem.
package replica

import (
	"errors"

	"tesc/internal/wal"
)

// GraphStatus is one graph's position on the primary.
type GraphStatus struct {
	Name         string `json:"name"`
	Epoch        uint64 `json:"epoch"`
	GraphVersion uint64 `json:"graph_version"`
	// Monitors fingerprints the graph's standing-query set (monitor
	// IDs, order-independent). Monitor create/delete has no WAL record
	// — monitors travel inside snapshot images — so a follower detects
	// a changed monitor set by fingerprint mismatch at caught-up
	// reconciliation and re-bootstraps the graph.
	Monitors uint64 `json:"monitors"`
}

// Status is the primary's replication summary. The primary reads graph
// epochs BEFORE the log end: with log-before-publish on the mutation
// path, every epoch listed here has its record at a position strictly
// before End, so a follower whose cursor reached End while a graph
// still lags a Status epoch has genuinely diverged (stale snapshot
// install) and must re-bootstrap — the self-healing rule depends on
// this ordering.
type Status struct {
	Graphs []GraphStatus `json:"graphs"`
	// Oldest is the first retained log position; a follower with no
	// cursor starts here. End is one past the last complete frame.
	Oldest wal.ShipCursor `json:"oldest"`
	End    wal.ShipCursor `json:"end"`
}

// SnapshotPart is one graph's bootstrap image.
type SnapshotPart struct {
	Name string
	// Data is a .tescsnap image (graph, events, epoch stamps, vicinity
	// indexes, monitors) as written by the snapshot package.
	Data []byte
	// Barrier is the primary's log end captured BEFORE the snapshot
	// was cut: every record of this graph positioned before Barrier is
	// already contained in Data and must be skipped, records at or
	// after it chain onto it by epoch. Capturing the barrier first
	// means a record landing between the two reads is both covered by
	// the snapshot and replayed after it — the epoch gate deduplicates
	// it, so nothing is lost and nothing applies twice.
	Barrier wal.ShipCursor
}

// Transport moves replication data from a primary to a follower. It is
// the seam all I/O goes through; implementations must be safe for use
// by one follower goroutine.
type Transport interface {
	// Status reports the primary's graphs and retained log bounds.
	Status() (Status, error)
	// Snapshot fetches one graph's bootstrap image, ErrUnknownGraph if
	// the primary has no such graph.
	Snapshot(graph string) (SnapshotPart, error)
	// Pull ships whole frames from cur, up to roughly maxBytes.
	Pull(cur wal.ShipCursor, maxBytes int) (wal.ShipBatch, error)
}

// ErrUnknownGraph is Transport.Snapshot's typed miss: the primary does
// not (or no longer does) have the graph.
var ErrUnknownGraph = errors.New("replica: unknown graph on primary")

// ErrDiverged is wrapped by State.Apply's error when a record cannot
// extend the follower's state (epoch gap, graph-version mismatch, or a
// change batch that did not take effect identically). The follower
// answers it by re-bootstrapping the graph from a fresh snapshot.
var ErrDiverged = errors.New("replica: state diverged from log")

// State is the follower-side application surface, implemented by the
// server so every replicated record goes through the same record
// applier — and so the same serialized registry mutations, index
// migration and monitor notification included — that the server's own
// WAL replay uses at boot.
type State interface {
	// Meta reports a graph's current epoch and graph version.
	Meta(name string) (epoch, graphVersion uint64, ok bool)
	// Names lists the graphs currently registered locally.
	Names() []string
	// Monitors fingerprints the graph's local standing-query set, with
	// the same function the primary uses for GraphStatus.Monitors.
	Monitors(name string) uint64
	// Apply applies one KindEdges or KindEvents record. It verifies the
	// record extends the graph's chain — epoch == current+1, for edges
	// graph version == current+1, every logged change takes effect, and
	// the graph lands on the record's epoch — and returns an error
	// wrapping ErrDiverged otherwise; other errors mean "retry later"
	// (local durability).
	Apply(rec *wal.Record) error
	// Drop deregisters a graph (KindDrop, or reconciliation against a
	// primary that no longer has it).
	Drop(name string) error
	// Install replaces (or creates) a graph from a .tescsnap image.
	Install(name string, data []byte) error
	// SaveCursor / LoadCursor persist the follower's log cursor so a
	// restarted follower resumes from its local WAL tail instead of
	// re-pulling the world. Implementations without durable storage
	// return ok=false and may no-op the save.
	SaveCursor(cur wal.ShipCursor) error
	LoadCursor() (cur wal.ShipCursor, ok bool)
}
