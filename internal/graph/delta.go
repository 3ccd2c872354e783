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
// new snapshot. The snapshot shares every page of rows (see Graph) the
// staged flips do not touch with the base graph and rebuilds the rest,
// so the per-change work — sorting the Δ staged flips and rebuilding
// the pages their rows fall in — is O(Δ log Δ) plus those pages' arcs.
// This is the write path of the dynamic-graph subsystem: the paper's
// index structures assume an immutable graph (§4.2), so updates are
// staged here and published as new snapshots.
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

// Compact merges the overlay into a new snapshot and resets the delta
// onto it. The snapshot's page table is a copy of the base graph's in
// which only the pages holding a touched row are rebuilt; every other
// page is shared. The cost is one copy of the page table, plus
// O(Δ log Δ) and the touched pages' arcs for the staged changes.
func (d *Delta) Compact() *Graph {
	if len(d.added) == 0 && len(d.removed) == 0 {
		return d.base
	}
	g := d.base

	// The staged changes as arcs (both directions), sorted by row and
	// then by neighbor, so each touched page's flips are one run in row
	// order and each row's in its own adjacency order.
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

	pages := slices.Clone(g.pages)
	for lo := 0; lo < len(flips); {
		p := flips[lo].u >> pageShift
		hi := lo + 1
		for hi < len(flips) && flips[hi].u>>pageShift == p {
			hi++
		}
		pages[p] = g.pages[p].merge(p<<pageShift, flips[lo:hi])
		lo = hi
	}

	out := &Graph{pages: pages, n: g.n, m: d.m}
	d.base = out
	clear(d.added)
	clear(d.removed)
	return out
}

// merge returns a new page holding p's rows, the first of which is node
// first, with flips applied: flips are the arcs of p's rows to flip,
// sorted by row and then by neighbor. A staged deletion is always an
// arc of p, and a staged insertion never is.
func (p page) merge(first NodeID, flips []arcFlip) page {
	arcs := p.off[pageRows] - p.off[0]
	for _, f := range flips {
		if f.insert {
			arcs++
		} else {
			arcs--
		}
	}
	out := page{off: new([pageRows + 1]int64), adj: make([]NodeID, 0, arcs)}
	for r := 0; r < pageRows; r++ {
		out.off[r] = int64(len(out.adj))
		row := p.adj[p.off[r]:p.off[r+1]]
		// Merge the row with its flips, both sorted by neighbor.
		for ; len(flips) > 0 && flips[0].u == first+NodeID(r); flips = flips[1:] {
			f := flips[0]
			j := 0
			for j < len(row) && row[j] < f.v {
				j++
			}
			out.adj = append(out.adj, row[:j]...)
			row = row[j:]
			if f.insert {
				out.adj = append(out.adj, f.v)
			} else {
				row = row[1:]
			}
		}
		out.adj = append(out.adj, row...)
	}
	out.off[pageRows] = int64(len(out.adj))
	return out
}
