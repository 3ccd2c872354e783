package graph

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// rebuildWith returns g with the staged changes applied through the
// forgiving Builder — the oracle Compact is checked against.
func rebuildWith(g *Graph, changes []EdgeChange) *Graph {
	present := make(map[[2]NodeID]bool)
	g.ForEachEdge(func(u, v NodeID) bool {
		present[[2]NodeID{u, v}] = true
		return true
	})
	norm := func(u, v NodeID) [2]NodeID {
		if u > v {
			u, v = v, u
		}
		return [2]NodeID{u, v}
	}
	for _, c := range changes {
		if c.Insert {
			present[norm(c.U, c.V)] = true
		} else {
			delete(present, norm(c.U, c.V))
		}
	}
	b := NewBuilder(g.NumNodes())
	for e := range present {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// csrEqual checks got's raw CSR arrays against want's, and that FromCSR
// accepts them with got's edge count.
func csrEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	gotOff, gotAdj := got.CSR()
	wantOff, wantAdj := want.CSR()
	if !slices.Equal(gotOff, wantOff) || !slices.Equal(gotAdj, wantAdj) {
		for v := 0; v < min(got.NumNodes(), want.NumNodes()); v++ {
			if g, w := got.Neighbors(NodeID(v)), want.Neighbors(NodeID(v)); !slices.Equal(g, w) {
				t.Fatalf("row %d: %v, want %v", v, g, w)
			}
		}
		t.Fatalf("CSR has %d offsets and %d arcs, want %d and %d", len(gotOff), len(gotAdj), len(wantOff), len(wantAdj))
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("edges: got %d, want %d", got.NumEdges(), want.NumEdges())
	}
	checked, err := FromCSR(gotOff, gotAdj)
	if err != nil {
		t.Fatalf("compacted CSR rejected: %v", err)
	}
	if checked.NumEdges() != got.NumEdges() {
		t.Fatalf("FromCSR counts %d edges, snapshot says %d", checked.NumEdges(), got.NumEdges())
	}
}

func TestDeltaInsertDelete(t *testing.T) {
	g := Path(6) // 0-1-2-3-4-5
	d := NewDelta(g)

	if ok, _ := d.InsertEdge(0, 1); ok {
		t.Error("inserting an existing edge should be a no-op")
	}
	if ok, _ := d.InsertEdge(0, 5); !ok {
		t.Error("inserting a new edge should take effect")
	}
	if !d.HasEdge(0, 5) || !d.HasEdge(5, 0) {
		t.Error("inserted edge not visible (both orientations)")
	}
	if ok, _ := d.DeleteEdge(2, 3); !ok {
		t.Error("deleting an existing edge should take effect")
	}
	if d.HasEdge(2, 3) || d.HasEdge(3, 2) {
		t.Error("deleted edge still visible")
	}
	if got, want := d.m, int64(5); got != want {
		t.Errorf("edge count = %d, want %d", got, want)
	}
	if got := d.Pending(); got != 2 {
		t.Errorf("Pending = %d, want 2", got)
	}

	// Cancelling pairs collapse.
	if ok, _ := d.DeleteEdge(0, 5); !ok {
		t.Error("deleting the staged insertion should take effect")
	}
	if ok, _ := d.InsertEdge(3, 2); !ok {
		t.Error("re-inserting the staged deletion should take effect")
	}
	if got := d.Pending(); got != 0 {
		t.Errorf("Pending after cancellation = %d, want 0", got)
	}
	if d.Compact() != g {
		t.Error("Compact with an empty overlay should return the base graph")
	}
}

func TestDeltaValidation(t *testing.T) {
	d := NewDelta(Path(4))
	if _, err := d.InsertEdge(0, 4); err == nil {
		t.Error("out-of-range endpoint should fail")
	}
	if _, err := d.InsertEdge(2, 2); err == nil {
		t.Error("self-loop should fail")
	}
	if _, err := d.DeleteEdge(-1, 2); err == nil {
		t.Error("negative endpoint should fail")
	}
}

func TestDeltaCompactRandomized(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 7))
	n := 60
	b := NewBuilder(n)
	for i := 0; i < 150; i++ {
		b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	g := b.MustBuild()

	d := NewDelta(g)
	var applied []EdgeChange
	for step := 0; step < 400; step++ {
		u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
		if u == v {
			continue
		}
		c := EdgeChange{U: u, V: v, Insert: rng.IntN(2) == 0}
		eff, err := d.Apply([]EdgeChange{c})
		if err != nil {
			t.Fatal(err)
		}
		applied = append(applied, eff...)
		if want := d.HasEdge(u, v); want != c.Insert && len(eff) > 0 {
			t.Fatalf("step %d: HasEdge(%d,%d) = %v after %+v", step, u, v, want, c)
		}
		// Compact at irregular intervals; the snapshot must match a
		// from-scratch rebuild, and the delta keeps working on it.
		if step%97 == 96 {
			snap := d.Compact()
			csrEqual(t, snap, rebuildWith(g, applied))
		}
	}
	snap := d.Compact()
	csrEqual(t, snap, rebuildWith(g, applied))
	if want := rebuildWith(g, applied).NumEdges(); snap.NumEdges() != want {
		t.Fatalf("snapshot edges %d, want %d", snap.NumEdges(), want)
	}
}

// TestDeltaCompactRunBoundaries aims Compact's row runs at their edges:
// a sparse graph whose small batches leave long untouched runs, the
// first and last rows, adjacent touched rows, an empty row that gains
// edges, a row that loses all of them, and flips that cancel inside a
// batch. Every snapshot's raw arrays must equal a Builder rebuild.
func TestDeltaCompactRunBoundaries(t *testing.T) {
	const (
		n     = 2000
		empty = 700  // no edges in the base graph
		drain = 1300 // loses every edge in the scripted batch
	)
	rng := rand.New(rand.NewPCG(5, 2000))
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
		if u != empty && v != empty && u != drain && v != drain {
			b.AddEdge(u, v)
		}
	}
	for _, e := range [][2]NodeID{{drain, 5}, {drain, 900}, {drain, n - 1}, {0, 1}, {0, 50}, {n - 1, 3}} {
		b.AddEdge(e[0], e[1])
	}
	g := b.MustBuild()
	if g.Degree(empty) != 0 || g.Degree(drain) != 3 {
		t.Fatalf("set-up degrees %d, %d", g.Degree(empty), g.Degree(drain))
	}

	scripted := []EdgeChange{
		// The first and last rows.
		{U: 0, V: n - 1, Insert: true},
		// The empty row gains edges, one to its neighbor row.
		{U: empty, V: 3, Insert: true},
		{U: empty, V: n - 2, Insert: true},
		{U: empty, V: empty + 1, Insert: true},
		// Adjacent rows.
		{U: 1000, V: 1001, Insert: true},
		// The drained row loses every edge.
		{U: drain, V: 5, Insert: false},
		{U: drain, V: 900, Insert: false},
		{U: drain, V: n - 1, Insert: false},
		// A new edge and its deletion cancel, as do a base edge's
		// deletion and re-insertion.
		{U: 400, V: 1600, Insert: true},
		{U: 400, V: 1600, Insert: false},
		{U: 0, V: 1, Insert: false},
		{U: 0, V: 1, Insert: true},
	}
	d := NewDelta(g)
	applied, err := d.Apply(scripted)
	if err != nil {
		t.Fatal(err)
	}
	snap := d.Compact()
	csrEqual(t, snap, rebuildWith(g, applied))
	if snap.Degree(empty) != 3 || snap.Degree(drain) != 0 {
		t.Fatalf("scripted degrees %d, %d; want 3, 0", snap.Degree(empty), snap.Degree(drain))
	}

	// Small random batches; the boundary rows come up often.
	for batch := 0; batch < 60; batch++ {
		prev := snap
		pick := func() NodeID {
			switch rng.IntN(6) {
			case 0:
				return 0
			case 1:
				return n - 1
			}
			return NodeID(rng.IntN(n))
		}
		var changes []EdgeChange
		for len(changes) < 1+rng.IntN(5) {
			u, v := pick(), pick()
			if u == v {
				continue
			}
			changes = append(changes, EdgeChange{U: u, V: v, Insert: !d.HasEdge(u, v)})
		}
		applied, err := d.Apply(changes)
		if err != nil {
			t.Fatal(err)
		}
		snap = d.Compact()
		csrEqual(t, snap, rebuildWith(prev, applied))
	}
}

// TestDeltaApplyResultOwned pins that an Apply result survives a later
// Compact and Apply: it must not alias the delta's reusable change log.
func TestDeltaApplyResultOwned(t *testing.T) {
	d := NewDelta(Path(6))
	first, err := d.Apply([]EdgeChange{{U: 0, V: 5, Insert: true}})
	if err != nil {
		t.Fatal(err)
	}
	d.Compact()
	if _, err := d.Apply([]EdgeChange{{U: 1, V: 4, Insert: true}}); err != nil {
		t.Fatal(err)
	}
	if want := []EdgeChange{{U: 0, V: 5, Insert: true}}; !slices.Equal(first, want) {
		t.Fatalf("first Apply result became %v, want %v", first, want)
	}
}

// FuzzDeltaCompact decodes bytes into a small graph and a change list
// and checks every compaction against a Builder rebuild. data[0] sets
// the node count, data[1] is unused (it keeps the corpus's byte layout)
// and data[2] sets how many byte pairs build the base graph; each later pair (x, y) is a change
// on the edge {x&0x7f mod n, y mod n}, an insertion when x's high bit is
// set, and a pair naming one node twice compacts instead.
func FuzzDeltaCompact(f *testing.F) {
	f.Add([]byte{8, 0, 3, 0, 1, 1, 2, 2, 3, 0x80, 5, 1, 2, 4, 4, 0x87, 0, 3, 3})
	f.Add([]byte{8, 1, 3, 0, 1, 1, 2, 2, 3, 0x80, 5, 1, 2, 4, 4, 0x87, 0, 3, 3})
	f.Add([]byte{40, 0, 0, 0x80, 39, 0x80, 1, 0x81, 38, 0, 39, 5, 5, 0x85, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%40
		pairs := data[3:]
		edge := func(i int) (NodeID, NodeID, bool) {
			x, y := pairs[2*i], pairs[2*i+1]
			return NodeID(int(x&0x7f) % n), NodeID(int(y) % n), x&0x80 != 0
		}
		b := NewBuilder(n)
		split := min(int(data[2]), len(pairs)/2)
		for i := 0; i < split; i++ {
			u, v, _ := edge(i)
			b.AddEdge(u, v)
		}
		prev := b.MustBuild()
		d := NewDelta(prev)
		var applied []EdgeChange
		compact := func() {
			snap := d.Compact()
			csrEqual(t, snap, rebuildWith(prev, applied))
			prev, applied = snap, nil
		}
		for i := split; i < len(pairs)/2; i++ {
			u, v, insert := edge(i)
			if u == v {
				compact()
				continue
			}
			eff, err := d.Apply([]EdgeChange{{U: u, V: v, Insert: insert}})
			if err != nil {
				t.Fatal(err)
			}
			applied = append(applied, eff...)
		}
		compact()
	})
}
