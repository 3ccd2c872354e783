package replica

import "tesc/internal/wal"

// ApplyFrames consumes raw frame bytes against the follower's state as
// if they had arrived in a pull reply starting at the current cursor —
// the surface the FuzzApplyReplicatedRecord harness drives with
// adversarial bytes.
func (f *Follower) ApplyFrames(b []byte) error {
	return f.consume(wal.ShipBatch{Start: f.cur, Next: f.cur, Frames: b})
}

// SetMaxPull lowers the follower's per-pull frame budget, so a sweep
// splits the log across many pulls.
func (f *Follower) SetMaxPull(n int) { f.maxPull = n }
