package snapshot

import (
	"errors"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/wal"
)

// tinySnapshot builds a 4-node snapshot with one event, distinct per
// epoch so the crash sweep can tell versions apart.
func tinySnapshot(t *testing.T, epoch uint64) *Snapshot {
	t.Helper()
	// Path 0-1-2-3 for v1; v2 adds the chord 0-2 via a denser CSR.
	var offsets []int64
	var adj []graph.NodeID
	if epoch == 1 {
		offsets = []int64{0, 1, 3, 5, 6}
		adj = []graph.NodeID{1, 0, 2, 1, 3, 2}
	} else {
		offsets = []int64{0, 2, 4, 7, 8}
		adj = []graph.NodeID{1, 2, 0, 2, 0, 1, 3, 2}
	}
	g, err := graph.FromCSR(offsets, adj)
	if err != nil {
		t.Fatal(err)
	}
	b := events.NewBuilder(4)
	b.Add("e", graph.NodeID(int(epoch)))
	return &Snapshot{Graph: g, Store: b.Build(), Epoch: epoch, GraphVersion: epoch}
}

// TestSaveFileCrashSweep drives SaveFileFS through a crash at every
// filesystem operation. The atomicity contract under test:
//
//   - at every crash point, the path loads as either the previous
//     snapshot or the new one — never an error, never a torn file;
//   - once SaveFileFS has RETURNED success, only the new snapshot may
//     survive (this is the clause the directory fsync buys; without
//     SyncDir the rename can roll back and a compacted WAL has
//     already deleted the only other copy).
func TestSaveFileCrashSweep(t *testing.T) {
	v1 := tinySnapshot(t, 1)
	v2 := tinySnapshot(t, 2)
	const path = "data/g.tescsnap"

	// Fault-free run to learn the operation budget.
	probe := wal.NewFaultFS()
	if _, err := SaveFileFS(probe, path, v1); err != nil {
		t.Fatalf("baseline v1: %v", err)
	}
	mark := probe.Steps()
	if _, err := SaveFileFS(probe, path, v2); err != nil {
		t.Fatalf("baseline v2: %v", err)
	}
	budget := probe.Steps() - mark
	if budget < 4 {
		t.Fatalf("suspiciously few operations per save: %d", budget)
	}

	for torn := 0; torn < 2; torn++ {
		for n := int64(0); n <= budget; n++ {
			fsys := wal.NewFaultFS()
			if torn == 1 {
				fsys.TornWrite = func(size int) int { return size / 2 }
			}
			if _, err := SaveFileFS(fsys, path, v1); err != nil {
				t.Fatalf("v1 save: %v", err)
			}
			fsys.SetCrashAfter(n)
			_, err := SaveFileFS(fsys, path, v2)
			if err != nil && !errors.Is(err, wal.ErrCrash) {
				t.Fatalf("n=%d: unexpected error class: %v", n, err)
			}
			fsys.Crash()
			got, loadErr := LoadFileFS(fsys, path)
			if loadErr != nil {
				t.Fatalf("n=%d torn=%d: snapshot unreadable after crash: %v", n, torn, loadErr)
			}
			switch got.Epoch {
			case 1:
				if err == nil {
					t.Fatalf("n=%d torn=%d: SaveFileFS acknowledged v2 but crash restored v1", n, torn)
				}
			case 2:
				// New version present: fine whether or not the call
				// finished — the rename happened to survive.
			default:
				t.Fatalf("n=%d torn=%d: loaded epoch %d, want 1 or 2", n, torn, got.Epoch)
			}
			// No temp debris in the durable view is required — but any
			// that survived must be ignorable by extension (they are:
			// boot scans match *.tescsnap exactly). Just assert the
			// target itself is never a temp.
			if len(fsys.Bytes(path)) == 0 {
				t.Fatalf("n=%d torn=%d: snapshot file vanished", n, torn)
			}
		}
	}
}

// TestSaveFileFSRoundTrip pins the FS-backed writer against the
// FS-backed loader on the fault-free path.
func TestSaveFileFSRoundTrip(t *testing.T) {
	fsys := wal.NewFaultFS()
	want := tinySnapshot(t, 2)
	if _, err := SaveFileFS(fsys, "d/x.tescsnap", want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFileFS(fsys, "d/x.tescsnap")
	if err != nil {
		t.Fatal(err)
	}
	if got.Epoch != want.Epoch || got.GraphVersion != want.GraphVersion {
		t.Fatalf("stamps: got (%d,%d), want (%d,%d)", got.Epoch, got.GraphVersion, want.Epoch, want.GraphVersion)
	}
	if got.Graph.NumNodes() != want.Graph.NumNodes() || got.Graph.NumEdges() != want.Graph.NumEdges() {
		t.Fatal("graph shape diverged")
	}
	if got.Store.NumEvents() != 1 || !got.Store.Has("e") {
		t.Fatal("event store diverged")
	}
	// A failed fsync must fail the save and leave the target alone.
	fsys.SetSyncFailAfter(0)
	if _, err := SaveFileFS(fsys, "d/x.tescsnap", tinySnapshot(t, 3)); !errors.Is(err, wal.ErrSyncFailed) {
		t.Fatalf("save with failing fsync = %v, want ErrSyncFailed", err)
	}
	fsys.SetSyncFailAfter(-1)
	got, err = LoadFileFS(fsys, "d/x.tescsnap")
	if err != nil || got.Epoch != 2 {
		t.Fatalf("target after failed save: epoch %d err %v, want 2", got.Epoch, err)
	}
}
