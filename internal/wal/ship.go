package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// ErrShortFrame reports a frame cut off mid-bytes — the wire signature
// of a mid-frame disconnect (or a concurrent append still in flight).
// The bytes before it are intact; a consumer keeps them and re-reads
// from the truncation point.
var ErrShortFrame = errors.New("wal: short frame")

// ShipCursor addresses a byte position in the log for replication: a
// segment sequence number and a byte offset within that segment file.
// Cursors are handed to followers opaquely and echoed back on every
// pull, so a reply can always be matched to the request that asked for
// it — the discard rule that makes reordered, duplicated and delayed
// replies harmless.
type ShipCursor struct {
	Seg uint64 `json:"seg"`
	Off int64  `json:"off"`
}

// Before reports whether c addresses an earlier log position than o.
func (c ShipCursor) Before(o ShipCursor) bool {
	return c.Seg < o.Seg || (c.Seg == o.Seg && c.Off < o.Off)
}

func (c ShipCursor) String() string { return fmt.Sprintf("%d:%d", c.Seg, c.Off) }

// ShipBatch is one pull's worth of log bytes: whole CRC frames only,
// all from a single segment, contiguous from Start.
type ShipBatch struct {
	// Start echoes the requested cursor. A follower discards any batch
	// whose Start is not its current cursor — it is a stale or
	// duplicated reply from an earlier request.
	Start ShipCursor
	// Next is where the following pull should start: past the shipped
	// frames, or at the next segment when this one is exhausted (torn
	// tails of frozen segments are skipped — their records were never
	// acknowledged).
	Next ShipCursor
	// Frames holds the raw frames, byte-identical to the segment file.
	Frames []byte
	// Records counts the frames in Frames.
	Records int
	// TooOld is set when the cursor predates the oldest retained
	// segment (compaction deleted it) or does not address this log at
	// all; the follower must re-bootstrap from snapshots.
	TooOld bool
}

// EncodeFrame serializes one record as a CRC frame — byte-identical to
// what Append writes into a segment. Exposed for the replication tests
// and tools that synthesize log streams.
func EncodeFrame(r *Record) ([]byte, error) {
	payload, err := encodeRecord(r)
	if err != nil {
		return nil, err
	}
	if len(payload) > MaxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	frame := make([]byte, frameLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(payload))
	copy(frame[frameLen:], payload)
	return frame, nil
}

// DecodeFrame parses the first frame of b: the decoded record and the
// frame's total size in bytes. A truncated frame returns ErrShortFrame;
// a corrupt one (bad length, CRC mismatch, undecodable payload) any
// other error. Consumers advance by n per frame, so their cursor
// arithmetic matches the primary's file offsets exactly.
func DecodeFrame(b []byte) (rec Record, n int, err error) {
	if len(b) < frameLen {
		return Record{}, 0, ErrShortFrame
	}
	plen := binary.LittleEndian.Uint32(b[0:4])
	wantCRC := binary.LittleEndian.Uint32(b[4:8])
	if plen == 0 || plen > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("wal: record length %d outside (0,%d]", plen, MaxRecordBytes)
	}
	if uint64(len(b)-frameLen) < uint64(plen) {
		return Record{}, 0, ErrShortFrame
	}
	payload := b[frameLen : frameLen+int(plen)]
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return Record{}, 0, fmt.Errorf("wal: CRC mismatch (frame %08x, computed %08x)", wantCRC, got)
	}
	rec, err = decodeRecord(payload)
	if err != nil {
		return Record{}, 0, err
	}
	return rec, frameLen + int(plen), nil
}

// OldestCursor returns the position of the first retained record — the
// start of the oldest segment compaction has not deleted. A fresh
// follower with no local state starts pulling here.
func (l *Log) OldestCursor() ShipCursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.frozen) > 0 {
		return ShipCursor{Seg: l.frozen[0].seq, Off: segHeaderLen}
	}
	return ShipCursor{Seg: l.active.seq, Off: segHeaderLen}
}

// EndCursor returns the position one past the last acknowledged frame.
// Bytes a concurrent append is still writing, or a failed append left
// behind, are past it, so shipping up to EndCursor never reads them.
func (l *Log) EndCursor() ShipCursor {
	l.mu.Lock()
	defer l.mu.Unlock()
	return ShipCursor{Seg: l.active.seq, Off: l.active.bytes}
}

// shipSeg is a point-in-time view of one segment for Ship: taken under
// the log lock, read without it.
type shipSeg struct {
	seq    uint64
	path   string
	limit  int64 // readable bytes: the acknowledged frames
	active bool
}

// Ship reads whole frames starting at cur, up to roughly maxBytes, all
// from one segment. It is safe to call concurrently with appends,
// rotation and compaction: every segment is capped at its last
// acknowledged append, so a follower never sees a frame whose append
// failed, a torn tail or corrupt frame in a frozen segment skips to
// the next segment (followers must not see its bytes), and a cursor
// into a compacted-away segment comes back TooOld rather than as an
// error.
func (l *Log) Ship(cur ShipCursor, maxBytes int) (ShipBatch, error) {
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ShipBatch{}, fmt.Errorf("wal: log closed")
	}
	segs := make([]shipSeg, 0, len(l.frozen)+1)
	for _, m := range l.frozen {
		segs = append(segs, shipSeg{seq: m.seq, path: m.path, limit: m.bytes})
	}
	segs = append(segs, shipSeg{seq: l.active.seq, path: l.active.path, limit: l.active.bytes, active: true})
	l.mu.Unlock()

	batch := ShipBatch{Start: cur, Next: cur}
	if cur.Seg < segs[0].seq || cur.Seg > segs[len(segs)-1].seq {
		// Before the retained tail (compacted away) or past the active
		// segment (a different log generation): either way the cursor
		// does not address retained bytes.
		batch.TooOld = true
		return batch, nil
	}
	for _, sg := range segs {
		if sg.seq != cur.Seg {
			continue
		}
		data, err := readSegment(l.fs, sg.path, sg.limit)
		if err != nil {
			if !sg.active {
				// Compaction removed the file between the snapshot above
				// and the read; the cursor is stale.
				batch.TooOld = true
				return batch, nil
			}
			return ShipBatch{}, err
		}
		end, err := walkFrames(data, int(max(cur.Off, segHeaderLen)), func(_ *Record, frame []byte) bool {
			batch.Frames = append(batch.Frames, frame...)
			batch.Records++
			return len(batch.Frames) < maxBytes
		})
		// Torn or corrupt bytes (err != nil) end the segment. In the
		// active segment stop there. In a frozen segment skip to the next
		// one: behind a torn last frame nothing was ever acknowledged,
		// exactly as Open's recovery scan reads it. Past a
		// corrupt frame, which ends Open's scan, the follower's epoch gate
		// meets the hole and re-bootstraps behind a snapshot barrier.
		if !sg.active && (err != nil || end >= len(data)) {
			batch.Next = ShipCursor{Seg: sg.seq + 1, Off: segHeaderLen}
		} else {
			batch.Next = ShipCursor{Seg: sg.seq, Off: int64(end)}
		}
		return batch, nil
	}
	// cur.Seg sits inside the retained range but no such segment exists
	// — compaction won the race between the bounds check and the scan.
	batch.TooOld = true
	return batch, nil
}
