package screen

import (
	"cmp"
	"slices"

	"tesc/internal/graph"
	"tesc/internal/stats"
)

// rankTable holds, for some events of a SharedMemo's vocabulary, the
// dense rank of every published node's density: tied densities share a
// rank, and ranks follow stats.FloatKey order, so rank order and
// equality are exactly the densities' float order and equality. A
// pair's Kendall τ over rank keys is therefore bit-identical to τ over
// its densities, but cheaper: a warm memo holds ~12k nodes with at most
// a few hundred distinct densities per event, so a rank fits 32 bits
// (one (rank_a, rank_b) observation is one word in stats.KendallPrefix)
// and the radix sort reads two varying bytes of each instead of eight.
//
// A table is immutable once published (SharedMemo.ranks); a build that
// adds events or nodes makes a new one. It stays valid for as long as
// every node it ranks stays published, so Invalidate (when it drops an
// entry) and Reset drop it whole.
type rankTable struct {
	// publishes is the memo's publish count when the build began. A
	// larger count now means nodes were published since, which the
	// table does not rank.
	publishes int64
	slot      []int32      // node → slot; -1: not ranked
	cols      []rankColumn // per vocabulary event; nil ranks: not built
	bytes     int64        // footprint, for SharedMemo.Bytes
}

// rankColumn is one event's ranks, indexed by slot: uint16 when its
// distinct densities fit, else uint32.
type rankColumn struct {
	r16 []uint16
	r32 []uint32
}

func (c *rankColumn) built() bool { return c.r16 != nil || c.r32 != nil }

func (c *rankColumn) key(slot int32) uint64 {
	if c.r16 != nil {
		return uint64(c.r16[slot])
	}
	return uint64(c.r32[slot])
}

// covers reports whether the table ranks every event of events and
// every node published up to publishes.
func (t *rankTable) covers(events []int, publishes int64) bool {
	if t == nil || t.publishes != publishes {
		return false
	}
	for _, e := range events {
		if !t.cols[e].built() {
			return false
		}
	}
	return true
}

// rankEvents makes sure the memo's rank table ranks events (vocabulary
// indices) over every published node. It runs at the start of a
// one-pass sweep on (g, store, h), and builds only on a settled memo:
// the previous sweep on the memo finished on the same graph, store and
// h, and no Invalidate or Reset has dropped an entry since. A cold
// sweep would publish its densities only as it runs, and a monitor
// refresh (a new graph or store) would rank a memo it is about to
// change. A build ranks the missing events, or every event the table
// ranked when nodes were published since, over all published nodes.
func (m *SharedMemo) rankEvents(key popKey, events []int) {
	m.memMu.Lock()
	settled := m.settled == key
	m.memMu.Unlock()
	if !settled {
		return
	}
	m.rankMu.Lock()
	defer m.rankMu.Unlock()
	d := m.memo
	publishes := d.publishes.Load()
	old := m.ranks.Load()
	if old.covers(events, publishes) {
		return
	}
	if old != nil {
		for e := range old.cols {
			if old.cols[e].built() && !slices.Contains(events, e) {
				events = append(slices.Clip(events), e)
			}
		}
	}
	t := &rankTable{publishes: publishes, slot: make([]int32, len(d.states)), cols: make([]rankColumn, d.k)}
	var nodes []graph.NodeID
	for v := range d.states {
		t.slot[v] = -1
		if d.states[v].Load() == 2 {
			t.slot[v] = int32(len(nodes))
			nodes = append(nodes, graph.NodeID(v))
		}
	}
	t.bytes = int64(len(t.slot)) * 4
	for j, col := range d.rankColumns(nodes, events) {
		t.cols[events[j]] = col
		t.bytes += int64(len(col.r16))*2 + int64(len(col.r32))*4
	}
	m.ranks.Store(t)
}

// rankColumns ranks each event's density over nodes (slot order). The
// counts are read node-major, one count vector per node, since the
// memo stores them that way. A zero count is density +0, the smallest
// density there is (counts are non-negative, sizes positive): it gets
// rank 0, and only the nonzero densities are sorted.
func (d *densityMemo) rankColumns(nodes []graph.NodeID, events []int) []rankColumn {
	type ranked struct {
		key  uint64
		slot int32
	}
	col := make([]int, d.k) // vocabulary event → its index in events, or -1
	for e := range col {
		col[e] = -1
	}
	for j, e := range events {
		col[e] = j
	}
	nonzero := make([][]ranked, len(events))
	for s, r := range nodes {
		lo := int64(r) * int64(d.k)
		size := float64(d.sizes[r])
		for e, c := range d.counts[lo : lo+int64(d.k)] {
			if c != 0 && col[e] >= 0 {
				nonzero[col[e]] = append(nonzero[col[e]], ranked{stats.FloatKey(float64(c) / size), int32(s)})
			}
		}
	}
	cols := make([]rankColumn, len(events))
	for j, nz := range nonzero {
		slices.SortFunc(nz, func(a, b ranked) int { return cmp.Compare(a.key, b.key) })
		distinct := 0 // nonzero densities so far
		for i := range nz {
			if i == 0 || nz[i].key != nz[i-1].key {
				distinct++
			}
		}
		var r16 []uint16
		var r32 []uint32
		if distinct < 1<<16 {
			r16 = make([]uint16, len(nodes))
		} else {
			r32 = make([]uint32, len(nodes))
		}
		rank := 0
		for i, x := range nz {
			if i == 0 || x.key != nz[i-1].key {
				rank++
			}
			if r16 != nil {
				r16[x.slot] = uint16(rank)
			} else {
				r32[x.slot] = uint32(rank)
			}
		}
		cols[j] = rankColumn{r16, r32}
	}
	return cols
}

// rankKeys fills the pair's rank keys over rs, or reports false when a
// node of rs has no rank (it was published after the build): the pair
// then keys its prefix and the rest of its sample as floats. Every
// ranked node is published, so the rank path serves each node as a
// memo hit, exactly as EvalAll would.
func (s *memoSource) rankKeys(t *rankTable, rs []graph.NodeID) (kx, ky []uint64, ok bool) {
	ca, cb := &t.cols[s.a], &t.cols[s.b]
	if !ca.built() || !cb.built() {
		return nil, nil, false
	}
	if cap(s.kx) < len(rs) {
		s.kx = make([]uint64, len(rs))
		s.ky = make([]uint64, len(rs))
	}
	kx, ky = s.kx[:len(rs)], s.ky[:len(rs)]
	for i, r := range rs {
		slot := t.slot[r]
		if slot < 0 {
			return nil, nil, false
		}
		kx[i], ky[i] = ca.key(slot), cb.key(slot)
	}
	return kx, ky, true
}
