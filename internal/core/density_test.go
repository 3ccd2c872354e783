package core

import (
	"testing"

	"tesc/internal/graph"
)

// toy fixture: path 0-1-2-3-4-5, event a on {0,1}, event b on {4,5}.
func pathProblem(t *testing.T) *Problem {
	t.Helper()
	g := graph.Path(6)
	va := graph.NewNodeSet(6, []graph.NodeID{0, 1})
	vb := graph.NewNodeSet(6, []graph.NodeID{4, 5})
	return MustNewProblem(g, va, vb)
}

func TestNewProblemValidation(t *testing.T) {
	g := graph.Path(4)
	empty := graph.NewNodeSet(4, nil)
	if _, err := NewProblem(g, empty, empty); err != ErrNoEventNodes {
		t.Errorf("empty events: err = %v, want ErrNoEventNodes", err)
	}
	wrong := graph.NewNodeSet(5, []graph.NodeID{0})
	if _, err := NewProblem(g, wrong, empty); err == nil {
		t.Error("universe mismatch should fail")
	}
	ok, err := NewProblem(g, graph.NewNodeSet(4, []graph.NodeID{1}), empty)
	if err != nil {
		t.Fatalf("valid problem failed: %v", err)
	}
	if ok.Union.Len() != 1 {
		t.Errorf("union = %v", ok.Union.Members())
	}
}

// NewDensityEvaluator returns an evaluator for p at level h on its own
// BFS engine.
func NewDensityEvaluator(p *Problem, h int) *DensityEvaluator {
	return NewDensityEvaluatorBFS(p, h, graph.NewBFS(p.G))
}

func TestDensityEval(t *testing.T) {
	p := pathProblem(t)
	e := NewDensityEvaluator(p, 1)

	// r=0: V^1_0 = {0,1}; a-count 2, b-count 0, union 2.
	d := e.Eval(0)
	if d.VicinitySize != 2 || d.CountA != 2 || d.CountB != 0 || d.CountUnion != 2 {
		t.Errorf("density(0) = %+v", d)
	}
	if d.SA() != 1.0 || d.SB() != 0.0 {
		t.Errorf("SA=%g SB=%g", d.SA(), d.SB())
	}
	if d.CountUnion == 0 {
		t.Error("node 0 sees events")
	}

	// r=2: V^1_2 = {1,2,3}; a-count 1 (node 1), b 0.
	d2 := e.Eval(2)
	if d2.VicinitySize != 3 || d2.CountA != 1 || d2.CountB != 0 {
		t.Errorf("density(2) = %+v", d2)
	}
	if got, want := d2.SA(), 1.0/3; got != want {
		t.Errorf("SA(2) = %g, want %g", got, want)
	}

	// r=3 at h=1: V^1_3 = {2,3,4}; sees b only.
	d3 := e.Eval(3)
	if d3.CountA != 0 || d3.CountB != 1 || d3.CountUnion == 0 {
		t.Errorf("density(3) = %+v", d3)
	}

	if e.BFSCount != 3 {
		t.Errorf("BFSCount = %d, want 3", e.BFSCount)
	}
}

func TestDensityOutOfSight(t *testing.T) {
	// path of 9, events only at the ends, middle node at h=1 sees nothing
	g := graph.Path(9)
	va := graph.NewNodeSet(9, []graph.NodeID{0})
	vb := graph.NewNodeSet(9, []graph.NodeID{8})
	p := MustNewProblem(g, va, vb)
	e := NewDensityEvaluator(p, 1)
	d := e.Eval(4)
	if d.CountUnion != 0 {
		t.Error("center of long path should be out of sight at h=1")
	}
	if d.SA() != 0 || d.SB() != 0 {
		t.Error("out-of-sight densities must be 0")
	}
}

func TestEvalAll(t *testing.T) {
	p := pathProblem(t)
	e := NewDensityEvaluator(p, 2)
	rs := []graph.NodeID{0, 3, 5}
	sa, sb, ds := e.EvalAll(rs)
	if len(sa) != 3 || len(sb) != 3 || len(ds) != 3 {
		t.Fatal("length mismatch")
	}
	for i, r := range rs {
		d := e.Eval(r)
		if sa[i] != d.SA() || sb[i] != d.SB() {
			t.Errorf("EvalAll[%d] disagrees with Eval(%d)", i, r)
		}
	}
}

// Density vectors must follow Eq. 2 exactly: cross-check against naive
// set intersection on a grid.
func TestDensityAgainstNaive(t *testing.T) {
	g := graph.Grid(6, 6)
	va := graph.NewNodeSet(36, []graph.NodeID{0, 7, 14, 21})
	vb := graph.NewNodeSet(36, []graph.NodeID{35, 28, 21})
	p := MustNewProblem(g, va, vb)
	for _, h := range []int{1, 2, 3} {
		e := NewDensityEvaluator(p, h)
		for v := 0; v < 36; v++ {
			d := e.Eval(graph.NodeID(v))
			vic := queueBFS(g, graph.NodeID(v), h)
			if d.VicinitySize != len(vic) {
				t.Fatalf("h=%d v=%d: vicinity size %d != %d", h, v, d.VicinitySize, len(vic))
			}
			vs := graph.NewNodeSet(36, vic)
			if d.CountA != va.IntersectLen(vs) || d.CountB != vb.IntersectLen(vs) {
				t.Fatalf("h=%d v=%d: counts %+v", h, v, d)
			}
			if d.CountUnion != p.Union.IntersectLen(vs) {
				t.Fatalf("h=%d v=%d: union count %d", h, v, d.CountUnion)
			}
		}
	}
}
