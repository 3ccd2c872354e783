package core

import (
	"context"
	"sync"
	"sync/atomic"

	"tesc/internal/graph"
	"tesc/internal/vicinity"
)

// CountMemo keeps the density pass's integer counts of one event pair
// at one vicinity level across versions of a graph: per node r, the
// occurrence counts |Va∩V^h_r| and |Vb∩V^h_r| and the shared count
// |Va∩Vb∩V^h_r|, packed into one byte (3+3+2 bits; 0 means empty).
// A record that does not fit, such as a node seeing eight occurrences
// of one event, stays uncached. |V^h_r| is not kept: a read takes it
// from its vicinity index, so every density it serves is the same
// quotient of the same integers the pass computes.
//
// The memo is stamped with the graph version (epoch) its bytes hold.
// Readers load the bytes without a lock; commits and advances take mu
// and write only while the stamp is the one they expect. A read pinned
// to another epoch treats the memo as absent.
type CountMemo struct {
	h, nodes int
	stamp    atomic.Uint64
	mu       sync.Mutex      // serializes commits and advances
	words    []atomic.Uint64 // node v's byte is byte v&7 of words[v>>3]
}

// NewCountMemo returns an empty memo for a graph of the given node
// count at level h, stamped with epoch.
func NewCountMemo(nodes, h int, epoch uint64) *CountMemo {
	m := &CountMemo{h: h, nodes: nodes, words: make([]atomic.Uint64, (nodes+7)/8)}
	m.stamp.Store(epoch)
	return m
}

// Epoch returns the graph version the memo holds.
func (m *CountMemo) Epoch() uint64 { return m.stamp.Load() }

// Bytes returns the memo's footprint.
func (m *CountMemo) Bytes() int64 { return int64(len(m.words)) * 8 }

// Advance moves the memo from epoch from to epoch to, clearing the
// records of the nodes in dirty: the nodes whose h-vicinities can
// differ between the two versions (vicinity.DirtySet at a level ≥ h),
// or none when only other events changed. It reports false, changing
// nothing, when the memo is not at from.
func (m *CountMemo) Advance(from, to uint64, dirty []graph.NodeID) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stamp.Load() != from {
		return false
	}
	for _, v := range dirty {
		m.store(v, 0)
	}
	m.stamp.Store(to)
	return true
}

func (m *CountMemo) load(v graph.NodeID) uint8 {
	return uint8(m.words[v>>3].Load() >> (8 * (v & 7)))
}

// store sets v's byte; the caller holds mu.
func (m *CountMemo) store(v graph.NodeID, b uint8) {
	w := &m.words[v>>3]
	shift := 8 * (v & 7)
	w.Store(w.Load()&^(0xff<<shift) | uint64(b)<<shift)
}

// packCounts returns d's record, or 0 when it does not fit.
func packCounts(d Density) uint8 {
	shared := d.CountA + d.CountB - d.CountUnion
	if d.CountA > 7 || d.CountB > 7 || shared > 3 {
		return 0
	}
	return uint8(d.CountA | d.CountB<<3 | shared<<6)
}

// unpackCounts rebuilds the unit-intensity Density the pass computes
// for a node with record b and vicinity size size.
func unpackCounts(b uint8, size int) Density {
	ca, cb := int(b&7), int(b>>3&7)
	return Density{
		VicinitySize: size,
		CountA:       ca, CountB: cb, CountUnion: ca + cb - int(b>>6),
		SumA: float64(ca), SumB: float64(cb),
	}
}

// CountRead lends a CountMemo to one test on the graph version Epoch.
// The zero value lends nothing.
type CountRead struct {
	Memo  *CountMemo
	Epoch uint64
}

// countIndex returns the vicinity index a test with counts may read
// |V^h_r| from: the sampler's, when it is an importance or rejection
// sampler whose index covers p's graph at h, the memo fits p at h and
// the problem has unit intensities. Otherwise nil: the test runs
// without the memo.
func countIndex(p *Problem, h int, s Sampler, c CountRead) *vicinity.Index {
	if c.Memo == nil || c.Memo.h != h || c.Memo.nodes != p.G.NumNodes() || p.IntensityA != nil || p.IntensityB != nil {
		return nil
	}
	var idx *vicinity.Index
	switch s := s.(type) {
	case *ImportanceSampler:
		idx = s.Index
	case *RejectionSampler:
		idx = s.Index
	}
	if checkIndex("", idx, p, h) != nil {
		return nil
	}
	return idx
}

// evalCounts is the density pass served through c: a node whose record
// the memo holds at c.Epoch takes it, with |V^h_r| from idx, and the
// pass runs, from the cheaper side, over the other nodes only, whose
// fitting records it then commits. A memo that moved past c.Epoch
// while the records were read may have served a later version's, so
// the pass then runs over every node and commits nothing; so it does
// when the memo moves on before the commit. It reports the nodes served
// from the memo. keep, when non-nil, gets every node's record.
func (e *DensityEvaluator) evalCounts(ctx context.Context, c CountRead, idx *vicinity.Index, rs []graph.NodeID, keep func(i int, d Density)) (sa, sb []float64, hits int, err error) {
	sa, sb = make([]float64, len(rs)), make([]float64, len(rs))
	put := func(i int, d Density) {
		sa[i], sb[i] = d.SA(), d.SB()
		if keep != nil {
			keep(i, d)
		}
	}
	m := c.Memo
	recs := make([]uint8, len(rs))
	if m.stamp.Load() == c.Epoch {
		for i, r := range rs {
			recs[i] = m.load(r)
		}
		// A record written for a later version is stored only after the
		// stamp moved, so a stamp still at c.Epoch vouches for them all.
		if m.stamp.Load() != c.Epoch {
			clear(recs)
		}
	}
	miss := make([]int, 0, len(rs))
	for i, b := range recs {
		if b == 0 {
			miss = append(miss, i)
		} else {
			put(i, unpackCounts(b, idx.Size(rs[i], e.h)))
		}
	}
	if err := e.evalSubset(ctx, rs, miss, func(i int, d Density) {
		recs[i] = packCounts(d)
		put(i, d)
	}); err != nil {
		return nil, nil, 0, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.stamp.Load() == c.Epoch {
		for _, i := range miss {
			if recs[i] != 0 {
				m.store(rs[i], recs[i])
			}
		}
	}
	return sa, sb, len(rs) - len(miss), nil
}

// evalSubset runs Test's density pass over the nodes of rs at the
// given positions, from the side with the smaller ball sum at h = 1
// (see eventSideFree), and hands each record to put with its position
// in rs.
func (e *DensityEvaluator) evalSubset(ctx context.Context, rs []graph.NodeID, at []int, put func(i int, d Density)) error {
	if len(at) == 0 {
		return nil
	}
	sub := make([]graph.NodeID, len(at))
	for j, i := range at {
		sub[j] = rs[i]
	}
	keep := func(j int, d Density) { put(at[j], d) }
	var err error
	if eventSideFree(e.p, e.h) && eventSideCheaper(e.p.G, sub, e.p.EventNodes()) {
		_, _, err = e.evalEvents(ctx, sub, keep)
	} else {
		_, _, err = e.evalAll(ctx, sub, keep)
	}
	return err
}
