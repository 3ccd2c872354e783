package graph

import (
	"cmp"
	"fmt"
	"slices"
)

// EdgeChange is one edge flip: the insertion (Insert == true) or
// deletion of the edge {U, V}. A sequence of EdgeChanges is the unit
// the dynamic-graph subsystem exchanges: graphgen produces them as
// workloads, Delta accumulates and compacts them, and
// vicinity.Index.ApplyDeltaDirty consumes them to repair the |V^h_v|
// index incrementally.
type EdgeChange struct {
	U, V   NodeID
	Insert bool
}

// Delta is a mutable edge-set overlay on an immutable CSR Graph: edge
// insertions and deletions accumulate in small hash overlays while the
// base graph stays shared and untouched, and Compact merges both into a
// fresh CSR snapshot. A snapshot is n+1 offsets and 2m adjacency
// entries, so Compact writes that much, but in bulk copies; the
// per-change work — sorting the Δ staged flips and merging
// the rows they touch — is O(Δ log Δ) plus those rows' degrees. This is
// the write path of the dynamic-graph subsystem: the paper's index
// structures assume an immutable graph (§4.2), so updates are staged
// here and published as new snapshots.
//
// A Delta is not safe for concurrent use; the serving tier serializes
// writers and publishes compacted snapshots to readers.
type Delta struct {
	base    *Graph
	added   map[uint64]struct{}
	removed map[uint64]struct{}
	m       int64 // edge count of base+overlay
}

// NewDelta returns an empty overlay over base.
func NewDelta(base *Graph) *Delta {
	return &Delta{
		base:    base,
		added:   make(map[uint64]struct{}),
		removed: make(map[uint64]struct{}),
		m:       base.NumEdges(),
	}
}

// key normalizes an edge to a map key, the smaller endpoint first.
func (d *Delta) key(u, v NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func (d *Delta) check(u, v NodeID) error {
	if !d.base.Valid(u) || !d.base.Valid(v) {
		return fmt.Errorf("graph: edge (%d,%d) outside node range [0,%d)", u, v, d.base.NumNodes())
	}
	if u == v {
		return fmt.Errorf("graph: self-loop (%d,%d) not allowed", u, v)
	}
	return nil
}

// HasEdge reports whether the edge {u, v} exists in the overlaid graph.
func (d *Delta) HasEdge(u, v NodeID) bool {
	k := d.key(u, v)
	if _, ok := d.added[k]; ok {
		return true
	}
	if _, ok := d.removed[k]; ok {
		return false
	}
	return d.base.HasEdge(u, v)
}

// InsertEdge stages the insertion of {u, v}. It returns true if the
// edge was absent (the overlay changed), false if it already exists.
func (d *Delta) InsertEdge(u, v NodeID) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if d.HasEdge(u, v) {
		return false, nil
	}
	k := d.key(u, v)
	if _, ok := d.removed[k]; ok {
		delete(d.removed, k) // re-inserting a staged deletion cancels it
	} else {
		d.added[k] = struct{}{}
	}
	d.m++
	return true, nil
}

// DeleteEdge stages the deletion of {u, v}. It returns true if the edge
// existed (the overlay changed), false if it was already absent.
func (d *Delta) DeleteEdge(u, v NodeID) (bool, error) {
	if err := d.check(u, v); err != nil {
		return false, err
	}
	if !d.HasEdge(u, v) {
		return false, nil
	}
	k := d.key(u, v)
	if _, ok := d.added[k]; ok {
		delete(d.added, k) // deleting a staged insertion cancels it
	} else {
		d.removed[k] = struct{}{}
	}
	d.m--
	return true, nil
}

// Apply stages a batch of changes, skipping no-ops (inserting a present
// edge, deleting an absent one). It returns the changes that took
// effect — the exact flip list an incremental index update must see —
// in a slice the caller owns: later Apply and Compact calls leave it
// alone.
func (d *Delta) Apply(changes []EdgeChange) ([]EdgeChange, error) {
	var applied []EdgeChange
	for _, c := range changes {
		var ok bool
		var err error
		if c.Insert {
			ok, err = d.InsertEdge(c.U, c.V)
		} else {
			ok, err = d.DeleteEdge(c.U, c.V)
		}
		if err != nil {
			return nil, err
		}
		if ok {
			applied = append(applied, c)
		}
	}
	return applied, nil
}

// Pending returns the number of staged edge flips relative to the base
// graph (cancelling pairs collapse), the figure compaction policies key
// on.
func (d *Delta) Pending() int { return len(d.added) + len(d.removed) }

// arcFlip is one staged change seen from one row: the arc u→v is
// inserted or deleted.
type arcFlip struct {
	u, v   NodeID
	insert bool
}

// Compact merges the overlay into a fresh CSR snapshot and resets the
// delta onto it. Only the rows the overlay touches are merged; each run
// of untouched rows between them is one bulk copy of the base adjacency
// whose offsets shift by one constant. The cost is one copy of the
// adjacency and one pass over the offsets, plus O(Δ log Δ) and the
// touched rows' degrees for the staged changes.
func (d *Delta) Compact() *Graph {
	if len(d.added) == 0 && len(d.removed) == 0 {
		return d.base
	}
	g := d.base
	n := g.NumNodes()

	// The staged changes as arcs (both directions), sorted by row and
	// then by neighbor, so each touched row's flips are one run in its
	// own adjacency order.
	flips := make([]arcFlip, 0, 2*d.Pending())
	stage := func(set map[uint64]struct{}, insert bool) {
		for k := range set {
			u, v := NodeID(k>>32), NodeID(uint32(k))
			flips = append(flips, arcFlip{u, v, insert}, arcFlip{v, u, insert})
		}
	}
	stage(d.added, true)
	stage(d.removed, false)
	slices.SortFunc(flips, func(a, b arcFlip) int {
		return cmp.Or(cmp.Compare(a.u, b.u), cmp.Compare(a.v, b.v))
	})

	offsets := make([]int64, n+1)
	adj := make([]NodeID, 0, 2*d.m)
	// copyRows appends the untouched rows [lo, hi) in one copy.
	copyRows := func(lo, hi int) {
		shift := int64(len(adj)) - g.offsets[lo]
		dst, src := offsets[lo:hi], g.offsets[lo:hi]
		for i := range dst {
			dst[i] = src[i] + shift
		}
		adj = append(adj, g.adj[g.offsets[lo]:g.offsets[hi]]...)
	}
	next := 0 // first row not yet written
	for i := 0; i < len(flips); {
		u := flips[i].u
		copyRows(next, int(u))
		// Merge u's base row with its flips, both sorted by neighbor. A
		// staged deletion is always a base arc, and a staged insertion
		// never is.
		offsets[u] = int64(len(adj))
		row := g.Neighbors(u)
		for ; i < len(flips) && flips[i].u == u; i++ {
			f := flips[i]
			j := 0
			for j < len(row) && row[j] < f.v {
				j++
			}
			adj = append(adj, row[:j]...)
			row = row[j:]
			if f.insert {
				adj = append(adj, f.v)
			} else {
				row = row[1:]
			}
		}
		adj = append(adj, row...)
		next = int(u) + 1
	}
	copyRows(next, n)
	offsets[n] = int64(len(adj))

	out := &Graph{offsets: offsets, adj: adj, m: d.m}
	d.base = out
	clear(d.added)
	clear(d.removed)
	return out
}
