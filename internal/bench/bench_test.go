package bench

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

func TestDefaultAndTinyConfigs(t *testing.T) {
	d := DefaultConfig()
	if d.SampleSize != 900 || d.Pairs < 1 || d.DBLPScale <= 0 {
		t.Errorf("default config = %+v", d)
	}
	tiny := TinyConfig()
	if tiny.DBLPScale >= d.DBLPScale {
		t.Error("tiny config should be smaller than default")
	}
}

func TestOccurrences(t *testing.T) {
	if occurrences(1000) != 60 {
		t.Errorf("floor wrong: %d", occurrences(1000))
	}
	if occurrences(100_000) != 500 {
		t.Errorf("0.5%% wrong: %d", occurrences(100_000))
	}
}

func TestDatasets(t *testing.T) {
	cfg := TinyConfig()
	dblp := cfg.DBLP()
	if dblp.NumNodes() < 1000 {
		t.Errorf("DBLP surrogate too small: %d", dblp.NumNodes())
	}
	intr := cfg.Intrusion()
	if intr.NumNodes() != cfg.IntrusionNodes {
		t.Errorf("intrusion nodes = %d", intr.NumNodes())
	}
	tw := cfg.Twitter()
	if tw.NumNodes() != 1<<cfg.TwitterScaleExp {
		t.Errorf("twitter nodes = %d", tw.NumNodes())
	}
	// determinism
	dblp2 := cfg.DBLP()
	if dblp.NumEdges() != dblp2.NumEdges() {
		t.Error("dataset generation not deterministic")
	}
}

func TestFigureRender(t *testing.T) {
	f := Figure{
		ID: "figX", Title: "demo", XLabel: "x", YLabel: "y",
		Series: []Series{
			{Name: "s1", X: []float64{0, 1}, Y: []float64{0.5, 1}},
			{Name: "s2", X: []float64{0, 1}, Y: []float64{0.25, 0}},
		},
	}
	var buf bytes.Buffer
	if err := f.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"figX", "[y]", "s1", "s2", "0.5", "0.25"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
	// empty figure renders without panic
	var empty bytes.Buffer
	if err := (Figure{ID: "e", Title: "empty"}).Render(&empty); err != nil {
		t.Fatal(err)
	}
}

func TestTableRender(t *testing.T) {
	tbl := Table{
		ID: "tableX", Title: "demo",
		Header: []string{"a", "bee"},
		Rows:   [][]string{{"1", "2"}, {"333", "4"}},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"tableX", "bee", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestTrimFloat(t *testing.T) {
	cases := map[float64]string{
		1:      "1",
		0.5:    "0.5",
		0.1234: "0.1234",
		0:      "0",
		-2.5:   "-2.5",
	}
	for in, want := range cases {
		if got := trimFloat(in); got != want {
			t.Errorf("trimFloat(%g) = %q, want %q", in, got, want)
		}
	}
}

func TestHashLabelsDistinct(t *testing.T) {
	a := hashLabels("fig5", "batch", 1, 0.1)
	b := hashLabels("fig5", "batch", 1, 0.2)
	c := hashLabels("fig5", "batch", 2, 0.1)
	if a == b || a == c || b == c {
		t.Error("label hashes collide")
	}
	if a != hashLabels("fig5", "batch", 1, 0.1) {
		t.Error("hash not deterministic")
	}
}

func TestIDsAndRegistry(t *testing.T) {
	ids := IDs()
	if len(ids) != len(Registry) {
		t.Fatal("IDs incomplete")
	}
	want := []string{"datasets", "fig10a", "fig10b", "fig5", "fig6", "fig7", "fig8", "fig9",
		"table1", "table2", "table3", "table4", "table5"}
	if len(ids) != len(want) {
		t.Fatalf("ids = %v", ids)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

// Shape tests on the tiny config: every runner must complete and its
// output must reflect the paper's qualitative claims.

func TestRunRecallFigureShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := TinyConfig()
	figs, err := RunRecallFigure(cfg, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 3 {
		t.Fatalf("figures = %d, want 3 (h=1..3)", len(figs))
	}
	for _, f := range figs {
		if len(f.Series) != 3 {
			t.Fatalf("%s: series = %d, want 3 samplers", f.ID, len(f.Series))
		}
		// recall at noise 0 must be high for batch-bfs
		if f.Series[0].Y[0] < 0.5 {
			t.Errorf("%s: noiseless batch-bfs recall = %g, want high", f.ID, f.Series[0].Y[0])
		}
		for _, s := range f.Series {
			for i, y := range s.Y {
				if y < 0 || y > 1 {
					t.Errorf("%s/%s: recall[%d] = %g outside [0,1]", f.ID, s.Name, i, y)
				}
			}
		}
	}
}

func TestRunFig8Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := TinyConfig()
	figs, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(figs) != 2 {
		t.Fatalf("fig8 should have two panels, got %d", len(figs))
	}
	// removing all edges must kill positive recall entirely
	for _, s := range figs[0].Series {
		if last := s.Y[len(s.Y)-1]; last != 0 {
			t.Errorf("fig8a %s: recall with all edges removed = %g, want 0", s.Name, last)
		}
	}
}

func TestRunFig10bShape(t *testing.T) {
	cfg := TinyConfig()
	fig, err := RunFig10b(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 2 {
		t.Fatalf("fig10b series = %d", len(fig.Series))
	}
	naive, fast := fig.Series[0], fig.Series[1]
	// at n=1000 the O(n²) path must be clearly slower than O(n log n)
	if naive.Y[len(naive.Y)-1] < fast.Y[len(fast.Y)-1] {
		t.Errorf("naive %.3fms not slower than fast %.3fms at n=1000",
			naive.Y[len(naive.Y)-1], fast.Y[len(fast.Y)-1])
	}
}

func TestRunTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := TinyConfig()
	tbl, err := RunTable1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// every pair positively correlated at h=1
	for _, row := range tbl.Rows {
		z := parseF(t, row[2])
		if z <= 0 {
			t.Errorf("pair %s: z(h=1) = %g, want positive", row[1], z)
		}
	}
}

func TestRunTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := TinyConfig()
	tbl, err := RunTable2(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		for col := 2; col <= 4; col++ {
			if z := parseF(t, row[col]); z >= 0 {
				t.Errorf("pair %s col %d: z = %g, want negative", row[1], col, z)
			}
		}
	}
}

func TestRunTable5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	cfg := TinyConfig()
	tbl, err := RunTable5(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 2 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows[:2] {
		if row[5] != "no" {
			t.Errorf("rare pair %s mined by the frequency miner", row[0])
		}
		if z := parseF(t, row[2]); z < 2.33 {
			t.Errorf("rare pair %s: z = %g, want > 2.33", row[0], z)
		}
		if sup := parseF(t, row[4]); sup >= 10 {
			t.Errorf("rare pair %s: support %g not below the minsup threshold 10", row[0], sup)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}
