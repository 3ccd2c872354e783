package wal

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"
)

func edgesRec(graph string, epoch, gv uint64, changes ...EdgeChange) *Record {
	return &Record{Kind: KindEdges, Graph: graph, Epoch: epoch, GraphVersion: gv, Changes: changes}
}

func mustOpen(t *testing.T, fsys FS, dir string, opts Options) (*Log, *Recovery) {
	t.Helper()
	opts.FS = fsys
	l, rec, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return l, rec
}

// sameRecords compares decoded records against the originals,
// normalizing nil/empty distinctions the codec does not preserve.
func sameRecords(t *testing.T, got []Record, want []*Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i := range got {
		w := *want[i]
		if len(w.Changes) == 0 {
			w.Changes = nil
		}
		if got[i].Changes != nil && len(got[i].Changes) == 0 {
			got[i].Changes = nil
		}
		if len(w.Add) == 0 {
			w.Add = nil
		}
		if len(w.Remove) == 0 {
			w.Remove = nil
		}
		if !reflect.DeepEqual(got[i], w) {
			t.Fatalf("record %d:\n got  %+v\n want %+v", i, got[i], w)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	fsys := NewFaultFS()
	l, rec := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	if len(rec.Records) != 0 || rec.Torn {
		t.Fatalf("fresh dir recovered %+v", rec)
	}
	recs := []*Record{
		edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true}, EdgeChange{U: 3, V: 2, Insert: false}),
		{Kind: KindEvents, Graph: "g", Epoch: 3,
			Add:    map[string][]int{"b": {4, 5}, "a": {1}},
			Remove: map[string][]int{"c": {}}},
		{Kind: KindCheckpoint, Graph: "g", Epoch: 3},
		edgesRec("g/other", 2, 2, EdgeChange{U: 7, V: 8, Insert: true}),
		{Kind: KindDrop, Graph: "g/other", Epoch: 2},
	}
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if l.Appends() != int64(len(recs)) {
		t.Fatalf("Appends = %d, want %d", l.Appends(), len(recs))
	}
	if l.Fsyncs() < int64(len(recs)) {
		t.Fatalf("Fsyncs = %d under SyncAlways with %d appends", l.Fsyncs(), len(recs))
	}
	l.Close()

	l2, rec2 := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	defer l2.Close()
	if rec2.Torn {
		t.Fatalf("unexpected torn log: %v", rec2.TornErr)
	}
	sameRecords(t, rec2.Records, recs)
}

func TestCrashDropsUnsynced(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncOff})
	if err := l.Append(edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true})); err != nil {
		t.Fatalf("Append: %v", err)
	}
	l.Kill()
	fsys.Crash()
	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	// SyncOff never fsynced the record: the crash eats it. The log
	// must still be structurally clean (no torn tail — the whole
	// unsynced suffix vanished).
	if len(rec.Records) != 0 {
		t.Fatalf("recovered %d records appended under SyncOff across a crash", len(rec.Records))
	}
}

func TestCrashKeepsSynced(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	want := []*Record{
		edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true}),
		edgesRec("g", 3, 3, EdgeChange{U: 1, V: 2, Insert: true}),
	}
	for _, r := range want {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Kill() // no graceful close
	fsys.Crash()
	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	if rec.Torn {
		t.Fatalf("torn after clean SyncAlways appends: %v", rec.TornErr)
	}
	sameRecords(t, rec.Records, want)
}

func TestRotationAndCompaction(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	for epoch := uint64(2); epoch <= 6; epoch++ {
		if err := l.Append(edgesRec("g", epoch, epoch, EdgeChange{U: 0, V: int(epoch), Insert: true})); err != nil {
			t.Fatalf("Append: %v", err)
		}
		if err := l.Rotate(); err != nil {
			t.Fatalf("Rotate: %v", err)
		}
	}
	if got := l.Segments(); got != 6 { // 5 frozen + active
		t.Fatalf("Segments = %d, want 6", got)
	}
	// A checkpoint at epoch 4 covers the first three segments only.
	removed, err := l.Compact(map[string]uint64{"g": 4})
	if err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if removed != 3 {
		t.Fatalf("Compact removed %d segments, want 3", removed)
	}
	// Coverage of a graph the map omits is zero, not infinity.
	if removed, _ := l.Compact(map[string]uint64{}); removed != 0 {
		t.Fatalf("empty cover removed %d segments", removed)
	}
	removed, err = l.Compact(map[string]uint64{"g": 6})
	if err != nil || removed != 2 {
		t.Fatalf("Compact = (%d, %v), want (2, nil)", removed, err)
	}
	l.Close()

	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	if len(rec.Records) != 0 {
		t.Fatalf("compacted log still recovers %d records", len(rec.Records))
	}
}

func TestSegmentSizeRotation(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncOff, SegmentBytes: 64})
	var want []*Record
	for epoch := uint64(2); epoch <= 9; epoch++ {
		r := edgesRec("g", epoch, epoch, EdgeChange{U: 0, V: int(epoch), Insert: true})
		want = append(want, r)
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if got := l.Segments(); got < 3 {
		t.Fatalf("Segments = %d after 8 appends with a 64-byte cap, want several", got)
	}
	l.Close()
	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	sameRecords(t, rec.Records, want)
}

func TestFailedFsyncRejectsAppend(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	defer l.Close()
	if err := l.Append(edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true})); err != nil {
		t.Fatalf("Append: %v", err)
	}
	fsys.SetSyncFailAfter(0)
	err := l.Append(edgesRec("g", 3, 3, EdgeChange{U: 1, V: 2, Insert: true}))
	if !errors.Is(err, ErrSyncFailed) {
		t.Fatalf("Append with failing fsync returned %v, want ErrSyncFailed", err)
	}
	// Recovered log: the unacknowledged record may or may not have
	// hit the platter, but the acknowledged one must be there and the
	// stream must decode.
	fsys.SetSyncFailAfter(-1)
	fsys.Crash()
	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	if rec.Torn {
		t.Fatalf("torn log after failed fsync: %v", rec.TornErr)
	}
	if len(rec.Records) < 1 || rec.Records[0].Epoch != 2 {
		t.Fatalf("acknowledged record lost: recovered %+v", rec.Records)
	}
}

// TestOpenDropsSupersededFrame: a frame whose fsync failed sits whole at
// the end of its segment. When the graph's next record retries its
// epoch, the boot scan drops it from the records and from the shipped
// bytes, as the live log did; with a drop of the graph in between, or
// with no retry at all, the frame is kept.
func TestOpenDropsSupersededFrame(t *testing.T) {
	change := func(u int) EdgeChange { return EdgeChange{U: u, V: u + 1, Insert: true} }
	for _, c := range []struct {
		name       string
		after      []*Record // appended once the fsync works again
		superseded bool
	}{
		{"retry", []*Record{edgesRec("h", 7, 7, change(9)), edgesRec("g", 3, 3, change(5)), edgesRec("g", 4, 4, change(6))}, true},
		{"drop between", []*Record{{Kind: KindDrop, Graph: "g", Epoch: 2}, edgesRec("g", 3, 3, change(5))}, false},
		{"no retry", []*Record{edgesRec("h", 3, 3, change(5))}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			fsys := NewFaultFS()
			l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
			acked := edgesRec("g", 2, 2, change(0))
			if err := l.Append(acked); err != nil {
				t.Fatal(err)
			}
			end := l.EndCursor()
			rejected := edgesRec("g", 3, 3, change(1))
			fsys.SetSyncFailAfter(0)
			if err := l.Append(rejected); err == nil {
				t.Fatal("Append with a failing fsync succeeded")
			}
			fsys.SetSyncFailAfter(-1)
			for _, r := range c.after {
				if err := l.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			l.Kill()

			l, rec := mustOpen(t, fsys, "data", Options{})
			defer l.Close()
			want := append([]*Record{acked, rejected}, c.after...)
			if c.superseded {
				want = append([]*Record{acked}, c.after...)
			}
			sameRecords(t, rec.Records, want)
			batch, err := l.Ship(end, 1<<20)
			if err != nil {
				t.Fatal(err)
			}
			if shipped := batch.Records == 1; shipped == c.superseded {
				t.Fatalf("shipped %d records from before the rejected frame, superseded=%v", batch.Records, c.superseded)
			}
			if c.superseded && batch.Next != (ShipCursor{Seg: end.Seg + 1, Off: segHeaderLen}) {
				t.Fatalf("after the capped segment Ship moves to %v, want the next segment", batch.Next)
			}
		})
	}
}

func TestAppendAfterWriteErrorRotates(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	defer l.Close()
	if err := l.Append(edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true})); err != nil {
		t.Fatalf("Append: %v", err)
	}
	// One torn write: the next append fails, poisoning the log...
	fsys.TornWrite = func(size int) int { return size / 2 }
	fsys.SetCrashAfter(0)
	if err := l.Append(edgesRec("g", 3, 3, EdgeChange{U: 1, V: 2, Insert: true})); err == nil {
		t.Fatal("Append during injected crash succeeded")
	}
	// ...but this process did not die; the fault clears (an EIO that
	// passed). The next append must rotate past the torn tail and
	// produce a decodable stream.
	fsys.TornWrite = nil
	fsys.ClearFault()
	if err := l.Append(edgesRec("g", 3, 3, EdgeChange{U: 1, V: 2, Insert: true})); err != nil {
		t.Fatalf("Append after clearing fault: %v", err)
	}
	l.Close()

	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	if !rec.Torn {
		t.Fatal("scan over a torn segment not flagged Torn")
	}
	// The tear ends its own segment only: the record before it and the
	// epoch-3 retry acknowledged after the rotate both come back.
	sameRecords(t, rec.Records, []*Record{
		edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true}),
		edgesRec("g", 3, 3, EdgeChange{U: 1, V: 2, Insert: true}),
	})
}

// tornLog appends recs to a fresh log under dir, then leaves half of
// one more frame at the end of its only segment: a crash mid-append.
func tornLog(t *testing.T, fsys *FaultFS, dir string, recs ...*Record) {
	t.Helper()
	l, _ := mustOpen(t, fsys, dir, Options{Policy: SyncAlways})
	for _, r := range recs {
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	l.Close()
	frame, err := EncodeFrame(edgesRec("g", 99, 99, EdgeChange{U: 5, V: 6, Insert: true}))
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	seg := dir + "/" + segName(1)
	fsys.SetFile(seg, append(fsys.Bytes(seg), frame[:len(frame)/2]...))
}

// TestAppendsAfterTornTailSurviveReboot: the boot after a crash
// mid-append acknowledges more appends into a fresh segment, and the
// boot after that must recover every one of them, not stop at the
// earlier segment's tear.
func TestAppendsAfterTornTailSurviveReboot(t *testing.T) {
	fsys := NewFaultFS()
	want := []*Record{edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true})}
	tornLog(t, fsys, "data", want[0])

	l, rec := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
	if !rec.Torn {
		t.Fatal("torn tail not flagged Torn")
	}
	sameRecords(t, rec.Records, want)
	for epoch := uint64(3); epoch <= 5; epoch++ {
		r := edgesRec("g", epoch, epoch, EdgeChange{U: int(epoch), V: 0, Insert: true})
		if err := l.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
		want = append(want, r)
	}
	l.Kill()

	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	if !rec.Torn {
		t.Fatal("second boot no longer reports the torn segment")
	}
	sameRecords(t, rec.Records, want)
}

// TestTornVersusCorruptSegment: a segment whose only defect is a
// truncated last frame hides nothing, so later segments still replay
// and it compacts once its intact records are covered. Any other defect
// may hide acknowledged records: the scan stops there, because a later
// segment replayed across that hole could graft onto whatever refills
// the missing epochs after the reboot, and neither the damaged segment
// nor any later one ever compacts. A length field corrupted to point
// past the end reads as a short frame but must not pass for a tear.
func TestTornVersusCorruptSegment(t *testing.T) {
	recs := []*Record{
		edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true}),
		edgesRec("g", 3, 3, EdgeChange{U: 1, V: 2, Insert: true}),
		edgesRec("g", 4, 4, EdgeChange{U: 2, V: 3, Insert: true}),
	}
	first, err := EncodeFrame(recs[0])
	if err != nil {
		t.Fatalf("EncodeFrame: %v", err)
	}
	second := segHeaderLen + len(first)
	pastEnd := func(data []byte, off int) {
		binary.LittleEndian.PutUint32(data[off:], uint32(len(data)))
	}
	for _, tc := range []struct {
		name    string
		damage  func(data []byte)
		want    []*Record
		removed int // by a cover of every epoch
	}{
		{"truncated last frame", func([]byte) {}, recs, 2},
		{"crc mismatch mid-segment", func(data []byte) { data[second+frameLen] ^= 0x40 }, recs[:1], 0},
		// Caught by the intact frame that follows.
		{"first length past the end, crc too", func(data []byte) {
			pastEnd(data, segHeaderLen)
			data[segHeaderLen+4] ^= 0x40
		}, nil, 0},
		// Caught by the hidden payload matching the frame's CRC.
		{"last length past the end", func(data []byte) { pastEnd(data, second) }, recs[:1], 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fsys := NewFaultFS()
			tornLog(t, fsys, "data", recs[:2]...)
			l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncAlways})
			if err := l.Append(recs[2]); err != nil {
				t.Fatalf("Append: %v", err)
			}
			l.Close()
			seg := "data/" + segName(1)
			data := fsys.Bytes(seg)
			tc.damage(data)
			fsys.SetFile(seg, data)

			l2, rec := mustOpen(t, fsys, "data", Options{})
			defer l2.Close()
			if !rec.Torn || errors.Is(rec.TornErr, ErrShortFrame) != (tc.removed > 0) {
				t.Fatalf("Torn = %v (%v)", rec.Torn, rec.TornErr)
			}
			sameRecords(t, rec.Records, tc.want)
			removed, err := l2.Compact(map[string]uint64{"g": 99})
			if err != nil || removed != tc.removed {
				t.Fatalf("Compact = (%d, %v), want (%d, nil)", removed, err, tc.removed)
			}
		})
	}
}

func TestIntervalPolicySyncsOnTimer(t *testing.T) {
	fsys := NewFaultFS()
	l, _ := mustOpen(t, fsys, "data", Options{Policy: SyncInterval, Interval: 5 * time.Millisecond})
	if err := l.Append(edgesRec("g", 2, 2, EdgeChange{U: 0, V: 1, Insert: true})); err != nil {
		t.Fatalf("Append: %v", err)
	}
	base := l.Fsyncs()
	deadline := time.Now().Add(2 * time.Second)
	for l.Fsyncs() == base {
		if time.Now().After(deadline) {
			t.Fatal("interval policy never fsynced")
		}
		time.Sleep(time.Millisecond)
	}
	l.Kill()
	fsys.Crash()
	l2, rec := mustOpen(t, fsys, "data", Options{})
	defer l2.Close()
	if len(rec.Records) != 1 {
		t.Fatalf("recovered %d records after interval sync, want 1", len(rec.Records))
	}
}

func TestEncodeRejectsOversizeFields(t *testing.T) {
	if _, err := encodeRecord(&Record{Kind: KindEdges, Graph: "g", Epoch: 2, Changes: []EdgeChange{{U: -1, V: 0}}}); err == nil {
		t.Fatal("negative node encoded")
	}
	long := make([]byte, 1<<17)
	for i := range long {
		long[i] = 'x'
	}
	if _, err := encodeRecord(&Record{Kind: KindCheckpoint, Graph: string(long), Epoch: 2}); err == nil {
		t.Fatal("oversize graph name encoded")
	}
	if _, err := encodeRecord(&Record{Kind: KindEvents, Graph: "g", Epoch: 2, Add: map[string][]int{string(long): {1}}}); err == nil {
		t.Fatal("oversize event name encoded")
	}
}

// Segments returns the current number of segment files (frozen +
// active).
func (l *Log) Segments() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.frozen) + 1
}
