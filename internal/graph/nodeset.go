package graph

import "slices"

// NodeSet is a set of nodes over a universe of n nodes, stored as its
// sorted, deduplicated members. It is the representation used for event
// occurrence sets (Va, Vb, Va∪b) and for materialized vicinities. Its
// size and every operation but Complement scale with the members, never
// with the universe: hot paths test membership through a per-node label
// array (core.Problem.Labels), so a set is built, merged and
// intersected, not probed node by node.
type NodeSet struct {
	sorted []NodeID
	n      int // universe size
}

// NewNodeSet builds a NodeSet over a universe of n nodes from the given
// members. The input may be unsorted and contain duplicates; out-of-range
// IDs panic.
func NewNodeSet(n int, members []NodeID) *NodeSet {
	sorted := slices.Clone(members)
	for _, v := range sorted {
		if v < 0 || int(v) >= n {
			panic("graph: NodeSet member out of range")
		}
	}
	slices.Sort(sorted)
	return &NodeSet{sorted: slices.Compact(sorted), n: n}
}

// Contains reports whether v is in the set, by binary search.
func (s *NodeSet) Contains(v NodeID) bool {
	_, ok := slices.BinarySearch(s.sorted, v)
	return ok
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
	a, b := s.sorted, t.sorted
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
	return &NodeSet{sorted: out, n: s.n}
}

// IntersectLen returns |s ∩ t| by one merge over both member lists, the
// primitive behind occurrence overlap (|Va ∩ Vb|) and, against a
// materialized vicinity, Eq. 2's |Va ∩ V^h_r|. Both sets must share the
// same universe.
func (s *NodeSet) IntersectLen(t *NodeSet) int {
	if s.n != t.n {
		panic("graph: NodeSet universe mismatch")
	}
	a, b := s.sorted, t.sorted
	c, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			c++
			i++
			j++
		}
	}
	return c
}

// Complement returns the set of universe nodes not in s.
func (s *NodeSet) Complement() *NodeSet {
	out := make([]NodeID, 0, s.n-len(s.sorted))
	next := s.sorted
	for v := NodeID(0); int(v) < s.n; v++ {
		if len(next) > 0 && next[0] == v {
			next = next[1:]
			continue
		}
		out = append(out, v)
	}
	return &NodeSet{sorted: out, n: s.n}
}
