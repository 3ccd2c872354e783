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

// flatCSR returns g's rows as flat CSR arrays: neighbors of v are
// adj[offsets[v]:offsets[v+1]].
func flatCSR(g *Graph) (offsets []int64, adj []NodeID) {
	offsets = make([]int64, 1, g.NumNodes()+1)
	for v := 0; v < g.NumNodes(); v++ {
		adj = append(adj, g.Neighbors(NodeID(v))...)
		offsets = append(offsets, int64(len(adj)))
	}
	return offsets, adj
}

// csrEqual checks got's rows, as flat CSR arrays, against want's, and
// that FromCSR accepts them with got's edge count.
func csrEqual(t *testing.T, got, want *Graph) {
	t.Helper()
	gotOff, gotAdj := flatCSR(got)
	wantOff, wantAdj := flatCSR(want)
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

// FuzzDeltaCompact decodes bytes into a graph and a change list and
// checks every compaction against a Builder rebuild. data[0] sets how
// many nodes the changes name, data[1] is unused (it keeps the corpus's
// byte layout) and data[2] sets how many byte pairs build the base
// graph; each later pair (x, y) is a change on the edge between named
// nodes x&0x7f mod n and y mod n, an insertion when x's high bit is
// set, and a pair naming one node twice compacts instead. The named
// nodes sit on both sides of the boundaries between the graph's four
// pages of rows (the last one partial), so flips cross pages.
func FuzzDeltaCompact(f *testing.F) {
	f.Add([]byte{8, 0, 3, 0, 1, 1, 2, 2, 3, 0x80, 5, 1, 2, 4, 4, 0x87, 0, 3, 3})
	f.Add([]byte{8, 1, 3, 0, 1, 1, 2, 2, 3, 0x80, 5, 1, 2, 4, 4, 0x87, 0, 3, 3})
	f.Add([]byte{40, 0, 0, 0x80, 39, 0x80, 1, 0x81, 38, 0, 39, 5, 5, 0x85, 6})
	const nodes = 3*pageRows + 8
	// node maps named node i to a row next to page boundary 1, 2 or 3:
	// its distance alternates sides, 0, -1, +1, -2, ... rows from it.
	node := func(i int) NodeID {
		k := i / 3
		off := k >> 1
		if k&1 == 1 {
			off = -off - 1
		}
		return NodeID((1+i%3)*pageRows + off)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := 2 + int(data[0])%40
		pairs := data[3:]
		edge := func(i int) (NodeID, NodeID, bool) {
			x, y := pairs[2*i], pairs[2*i+1]
			return node(int(x&0x7f) % n), node(int(y) % n), x&0x80 != 0
		}
		b := NewBuilder(nodes)
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

// TestDeltaCompactSharesPages checks the copy-on-write contract of
// Compact over random batches on a graph of nine pages of rows (the
// last one partial): every row of the snapshot equals a Builder
// rebuild, every page no flip touches is the parent's own page, every
// touched page is a new one, and the parent's rows stay as they were.
func TestDeltaCompactSharesPages(t *testing.T) {
	const n = 8*pageRows + 100
	rng := rand.New(rand.NewPCG(26, n))
	b := NewBuilder(n)
	for i := 0; i < 4*n; i++ {
		b.AddEdge(NodeID(rng.IntN(n)), NodeID(rng.IntN(n)))
	}
	prev := b.MustBuild()
	for batch := 0; batch < 40; batch++ {
		d := NewDelta(prev)
		var changes []EdgeChange
		for len(changes) < 1+rng.IntN(12) {
			u, v := NodeID(rng.IntN(n)), NodeID(rng.IntN(n))
			if u != v {
				changes = append(changes, EdgeChange{U: u, V: v, Insert: !d.HasEdge(u, v)})
			}
		}
		applied, err := d.Apply(changes)
		if err != nil {
			t.Fatal(err)
		}
		touched := make(map[int]bool)
		for _, c := range applied {
			touched[int(c.U)>>pageShift], touched[int(c.V)>>pageShift] = true, true
		}
		prevOff, prevAdj := flatCSR(prev)
		snap := d.Compact()
		csrEqual(t, snap, rebuildWith(prev, applied))
		for p := range prev.pages {
			shared := snap.pages[p].off == prev.pages[p].off
			if shared == touched[p] {
				t.Fatalf("batch %d: page %d shared = %v, touched = %v", batch, p, shared, touched[p])
			}
		}
		if off, adj := flatCSR(prev); !slices.Equal(off, prevOff) || !slices.Equal(adj, prevAdj) {
			t.Fatalf("batch %d: compaction changed the parent's rows", batch)
		}
		prev = snap
	}
}
