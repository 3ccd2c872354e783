package graph

import "sort"

// NodeSet is a set of nodes supporting O(1) membership tests via a
// bitset, plus ordered iteration via a sorted slice. It is the
// representation used for event occurrence sets (Va, Vb, Va∪b) and for
// materialized vicinities: density computation needs fast "is this
// visited node an event node?" tests on every BFS expansion.
//
// The bitset is sized to the universe (the graph's node count), so a set
// over a 20M-node graph costs 2.5 MB regardless of cardinality.
type NodeSet struct {
	sorted []NodeID
	bits   []uint64
	n      int // universe size
}

// NewNodeSet builds a NodeSet over a universe of n nodes from the given
// members. The input may be unsorted and contain duplicates; out-of-range
// IDs panic.
func NewNodeSet(n int, members []NodeID) *NodeSet {
	s := &NodeSet{
		bits: make([]uint64, (n+63)/64),
		n:    n,
	}
	for _, v := range members {
		if v < 0 || int(v) >= n {
			panic("graph: NodeSet member out of range")
		}
		w, b := v>>6, uint(v&63)
		if s.bits[w]&(1<<b) == 0 {
			s.bits[w] |= 1 << b
			s.sorted = append(s.sorted, v)
		}
	}
	sort.Slice(s.sorted, func(i, j int) bool { return s.sorted[i] < s.sorted[j] })
	return s
}

// Contains reports whether v is in the set.
func (s *NodeSet) Contains(v NodeID) bool {
	if v < 0 || int(v) >= s.n {
		return false
	}
	return s.bits[v>>6]&(1<<uint(v&63)) != 0
}

// Len returns the cardinality of the set.
func (s *NodeSet) Len() int { return len(s.sorted) }

// Universe returns the universe size the set was created with.
func (s *NodeSet) Universe() int { return s.n }

// Members returns the members in ascending order. The slice aliases
// internal storage and must not be modified.
func (s *NodeSet) Members() []NodeID { return s.sorted }

// Union returns a new set containing the members of s and t. Both sets
// must share the same universe.
func (s *NodeSet) Union(t *NodeSet) *NodeSet {
	if s.n != t.n {
		panic("graph: NodeSet universe mismatch")
	}
	out := &NodeSet{bits: make([]uint64, len(s.bits)), n: s.n}
	for i := range s.bits {
		out.bits[i] = s.bits[i] | t.bits[i]
	}
	out.sorted = mergeSorted(s.sorted, t.sorted)
	return out
}

// CountIn returns |s ∩ nodes| for an arbitrary node slice, the primitive
// behind density evaluation (Eq. 2: |Va ∩ V^h_r|).
func (s *NodeSet) CountIn(nodes []NodeID) int {
	c := 0
	for _, v := range nodes {
		if s.bits[v>>6]&(1<<uint(v&63)) != 0 {
			c++
		}
	}
	return c
}

func mergeSorted(a, b []NodeID) []NodeID {
	out := make([]NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Complement returns the set of universe nodes not in s.
func (s *NodeSet) Complement() *NodeSet {
	members := make([]NodeID, 0, s.n-s.Len())
	for v := 0; v < s.n; v++ {
		if !s.Contains(NodeID(v)) {
			members = append(members, NodeID(v))
		}
	}
	return NewNodeSet(s.n, members)
}
