package replica

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"tesc/internal/wal"
)

// Follower pulls a primary's WAL through a Transport and applies it to
// a State. Navigation state (cursor, per-graph barriers) belongs to the
// single goroutine calling Sync/Run; Metrics may be read concurrently.
type Follower struct {
	t       Transport
	st      State
	maxPull int
	logf    func(format string, args ...any)

	cur     wal.ShipCursor
	haveCur bool
	// barrier maps graph → the log position its last installed
	// snapshot was cut at: records of the graph before it are already
	// inside the snapshot and are skipped, never re-applied.
	barrier map[string]wal.ShipCursor
	// missing marks graphs the primary reported unknown this round
	// (dropped on the primary; their log records are a dead
	// generation). Cleared every Sync so a re-registration is noticed.
	missing map[string]bool

	lag        atomic.Uint64
	applied    atomic.Int64
	skipped    atomic.Int64
	pulls      atomic.Int64
	bootstraps atomic.Int64
	discards   atomic.Int64
	faults     atomic.Int64
}

// maxPullBytes bounds one pull's frame bytes.
const maxPullBytes = 1 << 20

// Options tunes a Follower.
type Options struct {
	// Logf receives diagnostics; nil disables them.
	Logf func(format string, args ...any)
}

// New assembles a follower over the given transport and state.
func New(t Transport, st State, opts *Options) *Follower {
	f := &Follower{
		t:       t,
		st:      st,
		maxPull: maxPullBytes,
		barrier: make(map[string]wal.ShipCursor),
		missing: make(map[string]bool),
	}
	if opts != nil {
		f.logf = opts.Logf
	}
	return f
}

// Metrics is a point-in-time view of the follower's counters.
type Metrics struct {
	// LagEpochs is the largest per-graph epoch distance behind the
	// primary at the last status exchange (0 = caught up).
	LagEpochs uint64
	// RecordsApplied counts log records applied to local state;
	// RecordsSkipped counts records consumed but not applied
	// (duplicates the epoch gate caught, records a snapshot barrier
	// already covered, dead generations).
	RecordsApplied, RecordsSkipped int64
	// Pulls counts Pull round-trips; Bootstraps snapshot installs;
	// Discards stale replies rejected by the echo/barrier rules;
	// Faults transport errors and corrupt payloads survived.
	Pulls, Bootstraps, Discards, Faults int64
}

// Metrics returns the current counters. Safe to call concurrently with
// Sync.
func (f *Follower) Metrics() Metrics {
	return Metrics{
		LagEpochs:      f.lag.Load(),
		RecordsApplied: f.applied.Load(),
		RecordsSkipped: f.skipped.Load(),
		Pulls:          f.pulls.Load(),
		Bootstraps:     f.bootstraps.Load(),
		Discards:       f.discards.Load(),
		Faults:         f.faults.Load(),
	}
}

// Run syncs on a ticker until the context is canceled.
func (f *Follower) Run(ctx context.Context, interval time.Duration) {
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := f.Sync(); err != nil && f.logf != nil {
			f.logf("replica: sync: %v", err)
		}
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
	}
}

// Sync performs one catch-up round: status, bootstrap of graphs the
// follower lacks, pulls until the follower's cursor reaches the log
// end observed at the start, then a caught-up reconciliation against a
// fresh status. A returned error means the round was cut short by a
// transport fault or local trouble; the follower's state is always
// consistent and the next Sync resumes where this one stopped.
func (f *Follower) Sync() error {
	// Dropped-graph knowledge is only a per-round memo: a name can be
	// re-registered on the primary at any time.
	f.missing = make(map[string]bool)

	st, err := f.t.Status()
	if err != nil {
		f.faults.Add(1)
		return err
	}
	if f.haveCur && st.End.Before(f.cur) {
		// A reply from the past (we have consumed log bytes it does not
		// know about): unusable, try again later.
		f.discards.Add(1)
		return fmt.Errorf("replica: stale status (end %v before cursor %v) discarded", st.End, f.cur)
	}
	if !f.haveCur {
		if c, ok := f.st.LoadCursor(); ok {
			f.cur = c
		} else {
			f.cur = st.Oldest
		}
		f.haveCur = true
		if st.End.Before(f.cur) {
			// The persisted cursor points past this primary's log — the
			// primary was reset or replaced. Start over from snapshots.
			if err := f.rebootstrapAll(st); err != nil {
				return err
			}
		}
	}
	f.updateLag(st)

	// Additive bootstrap: graphs the primary serves that we lack. A
	// registration writes no log record (its durability unit is the
	// primary's checkpoint), so the status listing is how new graphs
	// are discovered.
	for _, g := range st.Graphs {
		if _, _, ok := f.st.Meta(g.Name); !ok {
			if err := f.bootstrapGraph(g.Name); err != nil && !errors.Is(err, ErrUnknownGraph) {
				f.save()
				return err
			}
		}
	}

	rebootstraps := 0
	for f.cur.Before(st.End) {
		batch, err := f.t.Pull(f.cur, f.maxPull)
		if err != nil {
			f.faults.Add(1)
			f.save()
			return err
		}
		f.pulls.Add(1)
		if batch.TooOld {
			// Compaction deleted the segment under our cursor: every
			// record we have not seen is covered by primary snapshots.
			if rebootstraps++; rebootstraps > 4 {
				f.save()
				return fmt.Errorf("replica: cursor %v stayed behind the retained log after %d re-bootstraps", f.cur, rebootstraps-1)
			}
			if err := f.rebootstrapAll(st); err != nil {
				f.save()
				return err
			}
			continue
		}
		if batch.Start != f.cur {
			// Echo mismatch: a delayed or duplicated reply to an older
			// request. Consuming it would corrupt cursor arithmetic.
			f.discards.Add(1)
			f.save()
			return fmt.Errorf("replica: stale pull reply (start %v, cursor %v) discarded", batch.Start, f.cur)
		}
		prev := f.cur
		if err := f.consume(batch); err != nil {
			f.save()
			return err
		}
		if f.cur == prev {
			break // no progress (trailing torn bytes); re-pull next round
		}
	}
	f.save()

	// Caught-up reconciliation, against a status fresh enough to trust:
	// once the cursor equals the primary's log end, every local graph
	// must sit at exactly the primary's epoch — anything else is a
	// divergence (a stale snapshot installed under faults, or a primary
	// that lost acknowledged state) and re-bootstraps.
	st2, err := f.t.Status()
	if err != nil {
		f.faults.Add(1)
		return err
	}
	if st2.End.Before(f.cur) {
		f.discards.Add(1)
		return fmt.Errorf("replica: stale status (end %v before cursor %v) discarded", st2.End, f.cur)
	}
	if f.cur == st2.End {
		primary := make(map[string]GraphStatus, len(st2.Graphs))
		for _, g := range st2.Graphs {
			primary[g.Name] = g
		}
		for _, name := range f.st.Names() {
			if _, ok := primary[name]; !ok {
				// With drops always logged, a caught-up cursor implies
				// the drop record was consumed; a leftover local graph
				// means its records were compacted away before we saw
				// them (the TooOld path installs status graphs only).
				if err := f.st.Drop(name); err != nil {
					return err
				}
				delete(f.barrier, name)
				f.applied.Add(1)
			}
		}
		for _, g := range st2.Graphs {
			epoch, gv, ok := f.st.Meta(g.Name)
			if ok && epoch == g.Epoch && gv == g.GraphVersion && f.st.Monitors(g.Name) == g.Monitors {
				continue
			}
			if err := f.bootstrapGraph(g.Name); err != nil && !errors.Is(err, ErrUnknownGraph) {
				return err
			}
		}
	}
	f.updateLag(st2)
	return nil
}

// consume applies one batch's frames in log order, advancing the
// cursor frame by frame so an interrupted batch resumes exactly at the
// first unapplied record. Corrupt or truncated frame bytes keep the
// intact prefix and leave the cursor at the damage, to re-pull.
func (f *Follower) consume(batch wal.ShipBatch) error {
	frames := batch.Frames
	off := 0
	for off < len(frames) {
		rec, n, err := wal.DecodeFrame(frames[off:])
		if err != nil {
			f.faults.Add(1)
			return nil
		}
		if err := f.applyRecord(f.cur, &rec); err != nil {
			return err
		}
		f.cur.Off += int64(n)
		off += n
	}
	// All frames consumed: adopt the batch's Next, which may jump past
	// a frozen segment's torn tail (records never acknowledged) or to
	// the next segment.
	if f.cur.Before(batch.Next) {
		f.cur = batch.Next
	}
	return nil
}

// applyRecord applies one log record at position pos. A nil return
// means the record was consumed (applied or deliberately skipped); an
// error means the cursor must stay here and retry later.
func (f *Follower) applyRecord(pos wal.ShipCursor, rec *wal.Record) error {
	g := rec.Graph
	if b, ok := f.barrier[g]; ok && pos.Before(b) {
		// The installed snapshot already contains this record (it was
		// cut after the record was appended).
		f.skipped.Add(1)
		return nil
	}
	switch rec.Kind {
	case wal.KindCheckpoint:
		f.skipped.Add(1)
		return nil
	case wal.KindDrop:
		if _, _, ok := f.st.Meta(g); ok {
			if err := f.st.Drop(g); err != nil {
				return err
			}
			f.applied.Add(1)
		} else {
			f.skipped.Add(1)
		}
		delete(f.barrier, g)
		delete(f.missing, g)
		return nil
	case wal.KindEdges, wal.KindEvents:
	default:
		// A kind this build does not know (newer primary): skipping
		// would silently diverge, so stop and surface it.
		return fmt.Errorf("replica: unknown record kind %d at %v", rec.Kind, pos)
	}

	epoch, _, ok := f.st.Meta(g)
	if !ok {
		if f.missing[g] {
			// Known-dropped on the primary: a dead generation's record.
			f.skipped.Add(1)
			return nil
		}
		if err := f.bootstrapGraph(g); err != nil {
			if errors.Is(err, ErrUnknownGraph) {
				f.skipped.Add(1)
				return nil
			}
			return err
		}
		if b, ok := f.barrier[g]; ok && pos.Before(b) {
			f.skipped.Add(1)
			return nil
		}
		if epoch, _, ok = f.st.Meta(g); !ok {
			f.skipped.Add(1)
			return nil
		}
	}
	if rec.Epoch <= epoch {
		// Already contained (snapshot overlap, or a re-pull after a
		// partially consumed batch): the epoch gate is what guarantees
		// exactly-once application.
		f.skipped.Add(1)
		return nil
	}
	aerr := f.st.Apply(rec)
	if aerr == nil {
		f.applied.Add(1)
		return nil
	}
	if errors.Is(aerr, ErrDiverged) {
		// An epoch or version gap: this record belongs to a different
		// generation of the name (drop + re-register with overlapping
		// epochs) or chains onto state we do not have. A fresh snapshot
		// resolves either way — its barrier covers this record, since
		// the record is already in the primary's log.
		if err := f.bootstrapGraph(g); err != nil {
			if errors.Is(err, ErrUnknownGraph) {
				f.skipped.Add(1)
				return nil
			}
			return err
		}
		f.skipped.Add(1)
		return nil
	}
	return aerr
}

// bootstrapGraph fetches and installs one graph's snapshot, recording
// its barrier. ErrUnknownGraph marks the graph missing for the rest of
// the round; any other error leaves state untouched for a later retry.
func (f *Follower) bootstrapGraph(g string) error {
	part, err := f.t.Snapshot(g)
	if err != nil {
		if errors.Is(err, ErrUnknownGraph) {
			f.missing[g] = true
			return err
		}
		f.faults.Add(1)
		return err
	}
	// A fresh snapshot's barrier is the primary's log end at cut time,
	// which can never be behind bytes this follower has already
	// consumed — a barrier before the cursor is the signature of a
	// delayed reply to an older request. Installing it would roll the
	// graph back behind records the cursor will never revisit.
	if part.Name != g || part.Barrier.Before(f.cur) {
		f.discards.Add(1)
		return fmt.Errorf("replica: stale snapshot reply for %q discarded", g)
	}
	if err := f.st.Install(g, part.Data); err != nil {
		f.faults.Add(1)
		return fmt.Errorf("replica: installing %q: %w", g, err)
	}
	f.barrier[g] = part.Barrier
	delete(f.missing, g)
	f.bootstraps.Add(1)
	return nil
}

// rebootstrapAll rebuilds the follower from snapshots when the log can
// no longer carry it there: every status graph is re-installed, local
// graphs the primary no longer has are dropped, and the cursor moves
// to the earliest barrier — records before a graph's own barrier are
// skipped, records after it chain by epoch.
func (f *Follower) rebootstrapAll(st Status) error {
	var earliest wal.ShipCursor
	have := false
	for _, g := range st.Graphs {
		if err := f.bootstrapGraph(g.Name); err != nil {
			if errors.Is(err, ErrUnknownGraph) {
				continue
			}
			return err
		}
		if b := f.barrier[g.Name]; !have || b.Before(earliest) {
			earliest, have = b, true
		}
	}
	listed := make(map[string]bool, len(st.Graphs))
	for _, g := range st.Graphs {
		listed[g.Name] = true
	}
	for _, name := range f.st.Names() {
		if !listed[name] {
			if err := f.st.Drop(name); err != nil {
				return err
			}
			delete(f.barrier, name)
		}
	}
	if !have {
		earliest = st.Oldest
	}
	if f.cur.Before(earliest) {
		f.cur = earliest
	}
	f.save()
	return nil
}

// save persists the cursor (best effort — a failed save only costs
// re-pulled, epoch-deduplicated records after a restart).
func (f *Follower) save() {
	if !f.haveCur {
		return
	}
	if err := f.st.SaveCursor(f.cur); err != nil && f.logf != nil {
		f.logf("replica: saving cursor: %v", err)
	}
}

// updateLag recomputes the reported lag from a status reply: the
// largest per-graph epoch distance behind the primary.
func (f *Follower) updateLag(st Status) {
	var lag uint64
	for _, g := range st.Graphs {
		epoch, _, ok := f.st.Meta(g.Name)
		switch {
		case !ok:
			if g.Epoch > lag {
				lag = g.Epoch
			}
		case g.Epoch > epoch:
			if g.Epoch-epoch > lag {
				lag = g.Epoch - epoch
			}
		}
	}
	f.lag.Store(lag)
}
