package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FormatVersion is the current log-segment format version.
const FormatVersion = 1

// segMagic opens every segment file.
var segMagic = [8]byte{'T', 'E', 'S', 'C', 'W', 'A', 'L', '1'}

const (
	segHeaderLen = 16 // magic + version u32 + reserved u32
	frameLen     = 8  // payload length u32 + CRC32-IEEE u32
	// segPrefix/segExt frame segment file names: wal-%016x.tesclog.
	segPrefix = "wal-"
	segExt    = ".tesclog"
	// MaxRecordBytes bounds a record payload; a forged length field
	// larger than this is rejected before any allocation.
	MaxRecordBytes = 64 << 20
)

// Policy selects when appends reach the platter.
type Policy int

const (
	// SyncAlways fsyncs after every append: an acknowledged mutation
	// is durable, full stop.
	SyncAlways Policy = iota
	// SyncInterval fsyncs on a timer: a crash can lose at most the
	// last interval's acknowledged mutations.
	SyncInterval
	// SyncOff never fsyncs explicitly; durability rides on the OS
	// page cache (still crash-consistent, just not crash-durable).
	SyncOff
)

func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncOff:
		return "off"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy maps the -fsync flag values to a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "off":
		return SyncOff, nil
	default:
		return 0, fmt.Errorf("unknown fsync policy %q (always | interval | off)", s)
	}
}

// Options parameterizes Open.
type Options struct {
	// FS is the filesystem; nil means the real one.
	FS FS
	// Policy is the fsync policy (default SyncAlways).
	Policy Policy
	// Interval is the SyncInterval flush period (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment when it exceeds this
	// size (default 64 MiB).
	SegmentBytes int64
}

// Recovery reports what Open found on disk.
type Recovery struct {
	// Records holds every intact record the scan reached, in append
	// order across segments, less the failed appends a retry
	// superseded (see dropSuperseded).
	Records []Record
	// Segments counts the segment files scanned.
	Segments int
	// Torn is set when a corrupt or truncated record ended a segment
	// early — a truncated last frame is the expected signature of a
	// crash mid-append, and Records still holds the later segments'
	// records; a corrupt frame ends the scan.
	Torn bool
	// TornErr describes the first such defect.
	TornErr error
}

// Log is an append-only, CRC-framed, segmented mutation log. One
// writer (the server's serialized mutation path) appends; rotation
// freezes the active segment and compaction deletes frozen segments
// once a checkpoint covers every record they hold.
type Log struct {
	fs       FS
	dir      string
	policy   Policy
	segBytes int64

	mu     sync.Mutex
	frozen []*segmentMeta
	active *segmentMeta
	w      File
	closed bool
	// failed poisons the log after an append error: the active
	// segment may end in torn bytes, so the next append first rotates
	// to a clean segment before writing.
	failed error

	appends atomic.Int64
	fsyncs  atomic.Int64
	dirty   atomic.Bool // unsynced appends pending (SyncInterval)

	done     chan struct{}
	tickerWG sync.WaitGroup
}

// segmentMeta tracks one segment file: its highest mutation epoch per
// graph (the compaction coverage test) and whether the boot scan
// failed to account for all of it (unknown ⇒ never compacted).
type segmentMeta struct {
	seq  uint64
	path string
	// bytes ends the segment's acknowledged frames: an append counts
	// only once it returned success, so Ship never serves a failed
	// append's frame, which may sit complete in the file behind it.
	bytes    int64
	records  int
	maxEpoch map[string]uint64
	unknown  bool
}

func segName(seq uint64) string {
	return fmt.Sprintf("%s%016x%s", segPrefix, seq, segExt)
}

func segSeq(name string) (uint64, bool) {
	base, ok := strings.CutSuffix(name, segExt)
	if !ok {
		return 0, false
	}
	hexSeq, ok := strings.CutPrefix(base, segPrefix)
	if !ok || len(hexSeq) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hexSeq, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// Open scans the log directory, decodes every intact record, and opens
// a fresh active segment for new appends. A torn last frame ends its own
// segment, not the log — the rule Ship applies too: a crash or a failed
// append tears only the segment it was writing, and the appends
// acknowledged after it went to later segments. Any other defect stops
// the scan: everything after a corrupt frame is untrusted. Damaged bytes
// stay isolated in their now-frozen segment; they are never overwritten
// and never replayed. A failed append's whole frame that a retry
// superseded is cut from its segment, as the live log had it.
func Open(dir string, opts Options) (*Log, *Recovery, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS{}
	}
	if opts.Interval <= 0 {
		opts.Interval = 100 * time.Millisecond
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = 64 << 20
	}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, nil, err
	}
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	var seqs []uint64
	for _, name := range names {
		if seq, ok := segSeq(name); ok {
			seqs = append(seqs, seq)
		}
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })

	l := &Log{
		fs:       fsys,
		dir:      dir,
		policy:   opts.Policy,
		segBytes: opts.SegmentBytes,
		done:     make(chan struct{}),
	}
	rec := &Recovery{}
	var maxSeq uint64
	corrupt := false
	var tails []segmentTail
	for _, seq := range seqs {
		maxSeq = seq
		meta := &segmentMeta{seq: seq, path: path.Join(dir, segName(seq)), maxEpoch: make(map[string]uint64)}
		l.frozen = append(l.frozen, meta)
		if corrupt {
			// Everything after a corrupt frame is untrusted and must never
			// be compacted away silently; mark it unscanned.
			meta.unknown = true
			continue
		}
		rec.Segments++
		tail, err := scanSegment(fsys, meta, rec)
		if err == nil {
			if tail.rec >= 0 {
				tails = append(tails, tail)
			}
			continue
		}
		if !rec.Torn {
			rec.Torn = true
			rec.TornErr = fmt.Errorf("segment %s: %w", segName(seq), err)
		}
		// A truncated last frame is what a crash or a failed append
		// leaves: the bytes it hides were never acknowledged, so every
		// record before it is counted, the segment compacts once they
		// are covered, and later segments still replay. Any other defect
		// may hide acknowledged records, leaving per-graph epoch holes
		// that later writes refill on a new timeline — replaying past it
		// could graft this log's older records onto that timeline, so
		// the scan stops there.
		meta.unknown = !errors.Is(err, ErrShortFrame)
		corrupt = meta.unknown
	}
	dropSuperseded(rec, tails)

	// A fresh active segment, made durable before any append can be
	// acknowledged out of it.
	l.active = &segmentMeta{seq: maxSeq + 1, maxEpoch: make(map[string]uint64)}
	l.active.path = path.Join(dir, segName(l.active.seq))
	if err := l.openActive(); err != nil {
		return nil, nil, err
	}

	if l.policy == SyncInterval {
		l.tickerWG.Add(1)
		go l.syncLoop(opts.Interval)
	}
	return l, rec, nil
}

// openActive creates the active segment file, writes its header, and
// makes both the bytes and the directory entry durable.
func (l *Log) openActive() error {
	f, err := l.fs.Create(l.active.path)
	if err != nil {
		return err
	}
	var hdr [segHeaderLen]byte
	copy(hdr[:8], segMagic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], FormatVersion)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := l.fs.SyncDir(l.dir); err != nil {
		f.Close()
		return err
	}
	l.w = f
	l.active.bytes = segHeaderLen
	return nil
}

// segmentTail locates a scanned segment's last frame: its offset in
// the segment and its record's index in Recovery.Records (-1: the
// segment holds no frame).
type segmentTail struct {
	meta *segmentMeta
	off  int64
	rec  int
}

// scanSegment decodes one segment's intact records into rec, filling
// meta's coverage map as it goes, and locates its last frame. A non-nil
// error is the defect that ended the segment early.
func scanSegment(fsys FS, meta *segmentMeta, rec *Recovery) (segmentTail, error) {
	tail := segmentTail{meta: meta, rec: -1}
	data, err := readSegment(fsys, meta.path, -1)
	if err != nil {
		return tail, err
	}
	meta.bytes = int64(len(data))
	off := int64(segHeaderLen)
	_, err = walkFrames(data, segHeaderLen, func(r *Record, frame []byte) bool {
		tail.off, tail.rec = off, len(rec.Records)
		off += int64(len(frame))
		rec.Records = append(rec.Records, *r)
		meta.records++
		meta.note(r)
		return true
	})
	return tail, err
}

// dropSuperseded removes the frames of failed appends that a retry
// superseded. A record whose fsync failed can sit whole at the end of
// its segment, where the live log never counted it (Ship stops before
// it); the mutation path serializes and publishes only what it appended
// successfully, so the retry is the graph's next record and repeats the
// epoch. Such a last frame is cut from the segment's shipped bytes and
// from the recovered records, so neither replay nor a follower that
// lags behind it across a reboot sees it. A drop of the graph between
// the two means a new generation, not a retry.
func dropSuperseded(rec *Recovery, tails []segmentTail) {
	drop := make(map[int]bool)
	for _, t := range tails {
		if supersededAt(rec.Records, t.rec) {
			t.meta.bytes = t.off
			drop[t.rec] = true
		}
	}
	if len(drop) == 0 {
		return
	}
	kept := rec.Records[:0]
	for i, r := range rec.Records {
		if !drop[i] {
			kept = append(kept, r)
		}
	}
	rec.Records = kept
}

// supersededAt reports whether records[i] is a mutation whose graph's
// next mutation or drop is a mutation at the same epoch.
func supersededAt(records []Record, i int) bool {
	r := &records[i]
	if !r.mutation() {
		return false
	}
	for j := i + 1; j < len(records); j++ {
		if next := &records[j]; next.Graph == r.Graph && (next.mutation() || next.Kind == KindDrop) {
			return next.mutation() && next.Epoch == r.Epoch
		}
	}
	return false
}

// readSegment reads a segment file, or its first limit bytes when
// limit >= 0, and checks its header.
func readSegment(fsys FS, p string, limit int64) ([]byte, error) {
	f, err := fsys.Open(p)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if limit < 0 {
		limit = 1 << 31
	}
	data, err := io.ReadAll(io.LimitReader(f, limit))
	if err != nil {
		return nil, err
	}
	if len(data) < segHeaderLen {
		return nil, fmt.Errorf("wal: short header (%d bytes)", len(data))
	}
	if [8]byte(data[:8]) != segMagic {
		return nil, fmt.Errorf("wal: bad magic %q", data[:8])
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != FormatVersion {
		return nil, fmt.Errorf("wal: unsupported format version %d (supported: %d)", v, FormatVersion)
	}
	return data, nil
}

// walkFrames decodes the frames of a segment image from off, handing
// each intact record and its raw frame bytes to fn until fn returns
// false. It returns the offset past the last frame handed out and, if
// a defect ended the walk before the image did, that defect:
// ErrShortFrame for a truncated last frame, any other error for
// corruption.
func walkFrames(data []byte, off int, fn func(r *Record, frame []byte) bool) (int, error) {
	for off < len(data) {
		r, n, err := DecodeFrame(data[off:])
		if errors.Is(err, ErrShortFrame) && !lastFrame(data[off:]) {
			// A corrupted length field can point past the end too, but
			// the frames it swallowed are still there.
			err = fmt.Errorf("short frame followed by an intact one")
		}
		if err != nil {
			return off, fmt.Errorf("offset %d: %w", off, err)
		}
		off += n
		if !fn(&r, data[off-n:off]) {
			break
		}
	}
	return off, nil
}

// lastFrame reports whether a truncated frame at the start of b is all
// that is left. A crash or a failed append tears at most one frame and
// hides nothing behind it: no prefix of the cut payload matches the
// frame's CRC (as it would under a corrupted length field), and no
// intact frame starts anywhere after the frame's first byte.
func lastFrame(b []byte) bool {
	if len(b) > frameLen {
		want, crc := binary.LittleEndian.Uint32(b[4:8]), uint32(0)
		for i := frameLen; i < len(b); i++ {
			if crc = crc32.Update(crc, crc32.IEEETable, b[i:i+1]); crc == want {
				return false
			}
		}
	}
	for p := 1; p+frameLen <= len(b); p++ {
		if _, _, err := DecodeFrame(b[p:]); err == nil {
			return false
		}
	}
	return true
}

// note folds a record into the segment's compaction-coverage map.
func (m *segmentMeta) note(r *Record) {
	if !r.mutation() {
		return
	}
	if r.Epoch > m.maxEpoch[r.Graph] {
		m.maxEpoch[r.Graph] = r.Epoch
	}
}

// Append logs one record, honoring the fsync policy before returning.
// Under SyncAlways a nil return means the record is durable; any error
// means the caller must NOT acknowledge the mutation.
func (l *Log) Append(r *Record) error {
	frame, err := EncodeFrame(r)
	if err != nil {
		return err
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.failed != nil {
		// A previous append may have left torn bytes at the active
		// tail; appending after them would corrupt every later record.
		// Rotate to a clean segment first — if even that fails, the
		// log stays poisoned and mutations stay unacknowledged.
		if err := l.rotateLocked(); err != nil {
			return fmt.Errorf("wal: poisoned after %v (rotate failed: %w)", l.failed, err)
		}
		l.failed = nil
	}
	if _, err := l.w.Write(frame); err != nil {
		l.failed = err
		return err
	}
	l.active.records++
	l.active.note(r)
	switch l.policy {
	case SyncAlways:
		if err := l.w.Sync(); err != nil {
			l.failed = err
			return err
		}
		l.fsyncs.Add(1)
	case SyncInterval:
		l.dirty.Store(true)
	}
	l.active.bytes += int64(len(frame))
	l.appends.Add(1)
	if l.active.bytes >= l.segBytes {
		if err := l.rotateLocked(); err != nil {
			// The appended record is already durable per policy; a
			// failed rotation only delays compaction.
			l.failed = err
		}
	}
	return nil
}

// Rotate freezes the active segment (when it holds any records) and
// opens a fresh one, so a following checkpoint can cover — and
// compaction delete — everything appended so far.
func (l *Log) Rotate() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("wal: log closed")
	}
	if l.active.records == 0 {
		return nil
	}
	return l.rotateLocked()
}

func (l *Log) rotateLocked() error {
	// Flush pending appends into the frozen segment: its records must
	// not be less durable than the active tail's.
	if l.policy != SyncOff {
		if err := l.w.Sync(); err != nil {
			return err
		}
		l.fsyncs.Add(1)
		l.dirty.Store(false)
	}
	l.w.Close()
	old := l.active
	l.frozen = append(l.frozen, old)
	l.active = &segmentMeta{seq: old.seq + 1, maxEpoch: make(map[string]uint64)}
	l.active.path = path.Join(l.dir, segName(l.active.seq))
	return l.openActive()
}

// Compact deletes frozen segments whose every mutation record is
// covered by a durable checkpoint: cover maps graph → last epoch made
// durable (a dropped graph covers everything). Deletion goes oldest
// first and stops at the first uncovered segment, so the surviving log
// is always a contiguous tail.
func (l *Log) Compact(cover map[string]uint64) (removed int, err error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.frozen) > 0 {
		seg := l.frozen[0]
		if seg.unknown || !covered(seg.maxEpoch, cover) {
			break
		}
		if err := l.fs.Remove(seg.path); err != nil {
			return removed, err
		}
		l.frozen = l.frozen[1:]
		removed++
	}
	if removed > 0 {
		// The unlinks must be durable before callers may treat the
		// snapshots as the only copy — and, symmetrically, before a
		// crash could resurrect a deleted segment whose graph records
		// were since re-registered under new epochs.
		if err := l.fs.SyncDir(l.dir); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

func covered(maxEpoch, cover map[string]uint64) bool {
	for g, e := range maxEpoch {
		if cover[g] < e {
			return false
		}
	}
	return true
}

// Sync flushes pending appends to disk (SyncInterval's timer calls
// this; shutdown calls it directly).
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.failed != nil {
		return l.failed
	}
	if err := l.w.Sync(); err != nil {
		l.failed = err
		return err
	}
	l.fsyncs.Add(1)
	l.dirty.Store(false)
	return nil
}

func (l *Log) syncLoop(interval time.Duration) {
	defer l.tickerWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-l.done:
			return
		case <-t.C:
			if l.dirty.Load() {
				_ = l.Sync()
			}
		}
	}
}

// Close flushes and closes the log (graceful shutdown).
func (l *Log) Close() error {
	l.stopTicker()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.failed == nil && l.policy != SyncOff {
		if err = l.w.Sync(); err == nil {
			l.fsyncs.Add(1)
		}
	}
	l.w.Close()
	return err
}

// Kill abandons the log without flushing — the crash-test half of
// Close. Buffered but unsynced appends are left to their fate, exactly
// as a power cut would.
func (l *Log) Kill() {
	l.stopTicker()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	l.w.Close()
}

func (l *Log) stopTicker() {
	l.mu.Lock()
	select {
	case <-l.done:
	default:
		close(l.done)
	}
	l.mu.Unlock()
	l.tickerWG.Wait()
}

// Appends returns the number of records appended since Open.
func (l *Log) Appends() int64 { return l.appends.Load() }

// Fsyncs returns the number of fsyncs issued since Open.
func (l *Log) Fsyncs() int64 { return l.fsyncs.Load() }
