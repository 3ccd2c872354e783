package graph

import (
	"math/rand/v2"
	"runtime"
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
	if c := s.IntersectLen(NewNodeSet(10, []NodeID{1, 2, 3, 4})); c != 2 {
		t.Errorf("IntersectLen = %d, want 2", c)
	}
	if c := s.IntersectLen(NewNodeSet(10, nil)); c != 0 {
		t.Errorf("IntersectLen(empty) = %d, want 0", c)
	}
	// a set holds each member once, so a duplicated input counts once.
	if c := s.IntersectLen(NewNodeSet(10, []NodeID{2, 2})); c != 1 {
		t.Errorf("IntersectLen dup = %d, want 1", c)
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
		return a.Union(b).Len() == a.Len()+b.Len()-a.IntersectLen(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: IntersectLen with the full universe equals Len.
func TestNodeSetCountInUniverse(t *testing.T) {
	f := func(seed uint64) bool {
		const n = 100
		rng := rand.New(rand.NewPCG(seed, 3))
		var members []NodeID
		for i := 0; i < 30; i++ {
			members = append(members, NodeID(rng.IntN(n)))
		}
		s := NewNodeSet(n, members)
		return s.IntersectLen(NewNodeSet(n, nil).Complement()) == s.Len()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// A set costs its members, not its universe: building and merging
// 10-member sets over a 10M-node universe allocates under 1 KB.
func TestNodeSetAllocsIndependentOfUniverse(t *testing.T) {
	const n, runs = 10_000_000, 100
	ma := []NodeID{n - 1, 5, 17, 5, 123_456, 42, 7, 8_000_000, 3, 11, 64}
	mb := []NodeID{2, 9_000_000, 17, 4, 1 << 20, 6, 7, 99, 1000, 3}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		a, b := NewNodeSet(n, ma), NewNodeSet(n, mb)
		if a.Union(b).Len() != a.Len()+b.Len()-a.IntersectLen(b) {
			t.Fatal("inclusion-exclusion violated")
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 1024 {
		t.Errorf("NewNodeSet x2 + Union allocate %d B per run over a %d-node universe, want < 1024", per, n)
	}
}

// FuzzNodeSet checks NewNodeSet, Contains, Union, IntersectLen and
// Complement against a map oracle. The first byte picks the universe
// (0–64 nodes); each later byte adds node (byte & 0x7f) mod n to a
// (high bit clear) or b (high bit set), unsorted and with duplicates.
func FuzzNodeSet(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{10, 3, 1, 3, 7, 0x83, 0x84, 0x89})
	f.Add([]byte{64, 63, 0, 63, 0xbf, 0x80, 0x80, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		n := 0
		if len(data) > 0 {
			n, data = int(data[0])%65, data[1:]
		}
		var ma, mb []NodeID
		inA, inB := map[NodeID]bool{}, map[NodeID]bool{}
		for _, x := range data {
			if n == 0 {
				break
			}
			v := NodeID(int(x&0x7f) % n)
			if x&0x80 == 0 {
				ma, inA[v] = append(ma, v), true
			} else {
				mb, inB[v] = append(mb, v), true
			}
		}
		a, b := NewNodeSet(n, ma), NewNodeSet(n, mb)
		check := func(name string, s *NodeSet, in func(NodeID) bool) {
			t.Helper()
			if s.Universe() != n {
				t.Fatalf("%s: Universe = %d, want %d", name, s.Universe(), n)
			}
			members := s.Members()
			for i := 1; i < len(members); i++ {
				if members[i-1] >= members[i] {
					t.Fatalf("%s: members %v not strictly ascending", name, members)
				}
			}
			want := 0
			for v := NodeID(-2); v <= NodeID(n+1); v++ {
				if s.Contains(v) != in(v) {
					t.Fatalf("%s: Contains(%d) = %v", name, v, s.Contains(v))
				}
				if in(v) {
					want++
				}
			}
			if s.Len() != want {
				t.Fatalf("%s: Len = %d, want %d", name, s.Len(), want)
			}
		}
		check("a", a, func(v NodeID) bool { return inA[v] })
		check("b", b, func(v NodeID) bool { return inB[v] })
		check("a∪b", a.Union(b), func(v NodeID) bool { return inA[v] || inB[v] })
		check("a'", a.Complement(), func(v NodeID) bool { return v >= 0 && int(v) < n && !inA[v] })
		both := 0
		for v := range inA {
			if inB[v] {
				both++
			}
		}
		if got := a.IntersectLen(b); got != both || b.IntersectLen(a) != both {
			t.Fatalf("IntersectLen = %d, want %d", got, both)
		}
	})
}
