package replica

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"

	"tesc/internal/wal"
)

// ErrInjected marks transport failures manufactured by FaultTransport,
// so tests can tell injected trouble from real protocol violations.
var ErrInjected = errors.New("replica: injected transport fault")

// Fault kinds a FaultTransport draws from. Delivery failures (drop,
// partition) model lost and unreachable peers; stale replay models
// delayed, duplicated and reordered replies; truncate and corrupt
// model damage inside an otherwise delivered reply.
const (
	deliver = iota
	faultDrop
	faultStale
	faultTruncate
	faultCorrupt
	faultPartition
)

// FaultTransport wraps a Transport and injects deterministic,
// seed-reproducible faults at every operation: dropped replies, stale
// replays of earlier replies (reordering/duplication), mid-frame
// truncation, payload corruption, and multi-op partition windows.
// Heal switches it to transparent pass-through so tests can demand
// final convergence. Safe for concurrent use; with a single caller the
// fault schedule is a pure function of the seed.
type FaultTransport struct {
	inner Transport

	mu        sync.Mutex
	rng       *rand.Rand
	prob      float64
	healed    bool
	partition int // ops remaining in the current partition window

	// Bounded buffers of pristine past replies, the ammunition for
	// stale replays.
	prevStatus []Status
	prevSnaps  []SnapshotPart
	prevPulls  []wal.ShipBatch
}

// NewFaultTransport wraps inner with a fault injector firing with the
// given per-operation probability, deterministically from seed.
func NewFaultTransport(inner Transport, seed int64, prob float64) *FaultTransport {
	return &FaultTransport{
		inner: inner,
		rng:   rand.New(rand.NewSource(seed)),
		prob:  prob,
	}
}

// Heal stops all fault injection, ending any partition window.
func (ft *FaultTransport) Heal() {
	ft.mu.Lock()
	ft.healed = true
	ft.partition = 0
	ft.mu.Unlock()
}

// draw picks this operation's fate. Must hold mu.
func (ft *FaultTransport) draw() int {
	if ft.healed {
		return deliver
	}
	if ft.partition > 0 {
		ft.partition--
		return faultPartition
	}
	if ft.rng.Float64() >= ft.prob {
		return deliver
	}
	k := faultDrop + ft.rng.Intn(5)
	if k == faultPartition {
		ft.partition = 1 + ft.rng.Intn(4)
	}
	return k
}

// remember keeps the last few pristine replies of one kind.
func remember[T any](buf *[]T, v T) {
	*buf = append(*buf, v)
	if len(*buf) > 8 {
		*buf = (*buf)[len(*buf)-8:]
	}
}

func (ft *FaultTransport) Status() (Status, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	switch ft.draw() {
	case faultDrop, faultTruncate, faultCorrupt:
		return Status{}, fmt.Errorf("%w: status reply dropped", ErrInjected)
	case faultPartition:
		return Status{}, fmt.Errorf("%w: partitioned", ErrInjected)
	case faultStale:
		if n := len(ft.prevStatus); n > 0 {
			return ft.prevStatus[ft.rng.Intn(n)], nil
		}
		return Status{}, fmt.Errorf("%w: status reply dropped", ErrInjected)
	}
	st, err := ft.inner.Status()
	if err == nil {
		remember(&ft.prevStatus, st)
	}
	return st, err
}

func (ft *FaultTransport) Snapshot(graph string) (SnapshotPart, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	k := ft.draw()
	switch k {
	case faultDrop, faultTruncate, faultPartition:
		return SnapshotPart{}, fmt.Errorf("%w: snapshot reply dropped", ErrInjected)
	case faultStale:
		// A delayed reply to an EARLIER snapshot request — possibly for
		// a different graph, possibly from a dead generation of this
		// one. The follower's name and barrier checks must reject or
		// absorb it.
		if n := len(ft.prevSnaps); n > 0 {
			return ft.prevSnaps[ft.rng.Intn(n)], nil
		}
		return SnapshotPart{}, fmt.Errorf("%w: snapshot reply dropped", ErrInjected)
	}
	part, err := ft.inner.Snapshot(graph)
	if err != nil {
		return part, err
	}
	remember(&ft.prevSnaps, part)
	if k == faultCorrupt && len(part.Data) > 0 {
		// Flip one bit of the image in flight; the snapshot format's
		// per-section CRCs make Install reject it.
		data := append([]byte(nil), part.Data...)
		data[ft.rng.Intn(len(data))] ^= 1 << ft.rng.Intn(8)
		part.Data = data
	}
	return part, nil
}

func (ft *FaultTransport) Pull(cur wal.ShipCursor, maxBytes int) (wal.ShipBatch, error) {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	k := ft.draw()
	switch k {
	case faultDrop, faultPartition:
		return wal.ShipBatch{}, fmt.Errorf("%w: pull reply dropped", ErrInjected)
	case faultStale:
		// A delayed reply to an earlier pull: its Start no longer
		// matches the follower's cursor, so the echo rule discards it —
		// unless it happens to match exactly, in which case it is
		// simply a correct duplicate.
		if n := len(ft.prevPulls); n > 0 {
			return ft.prevPulls[ft.rng.Intn(n)], nil
		}
		return wal.ShipBatch{}, fmt.Errorf("%w: pull reply dropped", ErrInjected)
	}
	batch, err := ft.inner.Pull(cur, maxBytes)
	if err != nil {
		return batch, err
	}
	remember(&ft.prevPulls, batch)
	switch k {
	case faultTruncate:
		// The connection died mid-frame: keep a random prefix of the
		// frame bytes and lose the next-cursor handshake.
		if len(batch.Frames) > 0 {
			cut := ft.rng.Intn(len(batch.Frames))
			batch.Frames = append([]byte(nil), batch.Frames[:cut]...)
			batch.Next = batch.Start
			batch.Records = 0
		}
	case faultCorrupt:
		if len(batch.Frames) > 0 {
			frames := append([]byte(nil), batch.Frames...)
			frames[ft.rng.Intn(len(frames))] ^= 1 << ft.rng.Intn(8)
			batch.Frames = frames
		}
	}
	return batch, nil
}
