package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestNodeSetBasic(t *testing.T) {
	s := NewNodeSet(10, []NodeID{3, 1, 3, 7})
	if s.Len() != 3 {
		t.Fatalf("Len = %d, want 3 (dedup)", s.Len())
	}
	want := []NodeID{1, 3, 7}
	for i, v := range s.Members() {
		if v != want[i] {
			t.Fatalf("Members = %v, want %v", s.Members(), want)
		}
	}
	for _, v := range want {
		if !s.Contains(v) {
			t.Errorf("Contains(%d) = false", v)
		}
	}
	if s.Contains(0) || s.Contains(9) || s.Contains(-1) || s.Contains(10) {
		t.Error("Contains returned true for a non-member")
	}
	if s.Universe() != 10 {
		t.Errorf("Universe = %d", s.Universe())
	}
}

func TestNodeSetEmpty(t *testing.T) {
	s := NewNodeSet(5, nil)
	if s.Len() != 0 {
		t.Fatalf("empty set Len = %d", s.Len())
	}
	if s.Contains(0) {
		t.Error("empty set contains 0")
	}
	c := s.Complement()
	if c.Len() != 5 {
		t.Errorf("complement of empty = %d members, want 5", c.Len())
	}
}

func TestNodeSetOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range member")
		}
	}()
	NewNodeSet(3, []NodeID{5})
}

func TestNodeSetAlgebra(t *testing.T) {
	a := NewNodeSet(10, []NodeID{1, 2, 3, 4})
	b := NewNodeSet(10, []NodeID{3, 4, 5, 6})

	u := a.Union(b)
	if u.Len() != 6 {
		t.Errorf("union len = %d, want 6", u.Len())
	}
	for _, v := range []NodeID{1, 2, 3, 4, 5, 6} {
		if !u.Contains(v) {
			t.Errorf("union missing %d", v)
		}
	}
}

func TestNodeSetUniverseMismatchPanics(t *testing.T) {
	a := NewNodeSet(5, []NodeID{1})
	b := NewNodeSet(6, []NodeID{1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for universe mismatch")
		}
	}()
	a.Union(b)
}

func TestNodeSetCountIn(t *testing.T) {
	s := NewNodeSet(10, []NodeID{2, 4, 6})
	if c := s.CountIn([]NodeID{1, 2, 3, 4}); c != 2 {
		t.Errorf("CountIn = %d, want 2", c)
	}
	if c := s.CountIn(nil); c != 0 {
		t.Errorf("CountIn(nil) = %d, want 0", c)
	}
	// duplicates in the probe slice count each time (callers pass
	// distinct BFS-visited nodes).
	if c := s.CountIn([]NodeID{2, 2}); c != 2 {
		t.Errorf("CountIn dup = %d, want 2", c)
	}
}

func TestNodeSetComplement(t *testing.T) {
	s := NewNodeSet(6, []NodeID{0, 2, 4})
	c := s.Complement()
	if c.Len() != 3 {
		t.Fatalf("complement len = %d, want 3", c.Len())
	}
	for _, v := range []NodeID{1, 3, 5} {
		if !c.Contains(v) {
			t.Errorf("complement missing %d", v)
		}
	}
	cc := c.Complement()
	if !slices.Equal(cc.Members(), s.Members()) {
		t.Error("double complement != original")
	}
}

// Property: union cardinality follows inclusion–exclusion.
func TestNodeSetInclusionExclusion(t *testing.T) {
	f := func(seedA, seedB uint64) bool {
		const n = 64
		rngA := rand.New(rand.NewPCG(seedA, 1))
		rngB := rand.New(rand.NewPCG(seedB, 2))
		var ma, mb []NodeID
		for i := 0; i < 20; i++ {
			ma = append(ma, NodeID(rngA.IntN(n)))
			mb = append(mb, NodeID(rngB.IntN(n)))
		}
		a := NewNodeSet(n, ma)
		b := NewNodeSet(n, mb)
		return a.Union(b).Len() == a.Len()+b.Len()-a.CountIn(b.Members())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CountIn over the full universe equals Len.
func TestNodeSetCountInUniverse(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 100
		rng := rand.New(rand.NewPCG(seed, 3))
		var members []NodeID
		for i := 0; i < 30; i++ {
			members = append(members, NodeID(rng.IntN(n)))
		}
		s := NewNodeSet(n, members)
		all := make([]NodeID, n)
		for i := range all {
			all[i] = NodeID(i)
		}
		return s.CountIn(all) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
