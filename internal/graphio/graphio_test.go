package graphio

import (
	"bytes"
	"math/rand/v2"
	"os"
	"strings"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

func TestReadEdgeListBasic(t *testing.T) {
	in := `# a comment
0 1
1 2

2 3   # trailing fields are ignored beyond two? no: fields[2] ignored
`
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 3 {
		t.Fatalf("g = %v", g)
	}
}

func TestReadEdgeListDeclaredNodes(t *testing.T) {
	in := "# nodes 10\n0 1\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 10 {
		t.Fatalf("declared nodes ignored: %d", g.NumNodes())
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{
		"0\n",             // missing endpoint
		"a b\n",           // non-numeric
		"0 x\n",           // non-numeric second
		"-1 2\n",          // negative
		"0 99999999999\n", // overflow int32
	}
	for _, in := range cases {
		if _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(131, 1))
	g := graphgen.ErdosRenyi(200, 500, rng)
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestEdgeListRoundTripIsolatedNodes(t *testing.T) {
	// node 4 isolated; the header must preserve it
	g := graph.MustFromEdges(5, [][2]graph.NodeID{{0, 1}})
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != 5 {
		t.Fatalf("isolated nodes lost: %d", g2.NumNodes())
	}
}

func TestReadEventsBasic(t *testing.T) {
	in := "# events\nwireless\t3\nwireless 5\nsensor\t3\n"
	s, err := ReadEvents(strings.NewReader(in), 10)
	if err != nil {
		t.Fatal(err)
	}
	if s.NumEvents() != 2 {
		t.Fatalf("events = %v", s.Names())
	}
	if s.Count("wireless") != 2 || s.Count("sensor") != 1 {
		t.Error("counts wrong")
	}
}

func TestReadEventsErrors(t *testing.T) {
	cases := []string{
		"only-name\n",
		"e abc\n",
		"e 15\n", // outside universe 10
		"e -1\n",
	}
	for _, in := range cases {
		if _, err := ReadEvents(strings.NewReader(in), 10); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

func TestEventsRoundTrip(t *testing.T) {
	in := "b\t1\na\t5\na\t2\nc\t9\n"
	s, err := ReadEvents(strings.NewReader(in), 10)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEvents(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadEvents(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s2.NumEvents() != s.NumEvents() {
		t.Fatal("event count changed")
	}
	for _, name := range s.Names() {
		a, b := s.Occurrences(name), s2.Occurrences(name)
		if len(a) != len(b) {
			t.Fatalf("%s: occurrence count changed", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: occurrences differ", name)
			}
		}
	}
}

func TestEventsIntensityColumn(t *testing.T) {
	in := "kw\t3\t2.5\nkw 5\nplain\t1\n"
	s, err := ReadEvents(strings.NewReader(in), 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Intensity("kw", 3); got != 2.5 {
		t.Errorf("intensity = %g, want 2.5", got)
	}
	if got := s.Intensity("kw", 5); got != 1 {
		t.Errorf("default intensity = %g, want 1", got)
	}
	// round trip preserves intensities
	var buf bytes.Buffer
	if err := WriteEvents(&buf, s); err != nil {
		t.Fatal(err)
	}
	s2, err := ReadEvents(&buf, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Intensity("kw", 3) != 2.5 || s2.Intensity("kw", 5) != 1 || s2.Weighted("plain") {
		t.Errorf("round trip lost intensities")
	}
	// invalid intensities rejected
	for _, bad := range []string{"e 1 abc\n", "e 1 0\n", "e 1 -2\n"} {
		if _, err := ReadEvents(strings.NewReader(bad), 10); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestMaybeGzipRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(133, 1))
	g := graphgen.ErdosRenyi(100, 250, rng)
	dir := t.TempDir()

	for _, name := range []string{"plain.txt", "compressed.txt.gz"} {
		path := dir + "/" + name
		w, err := CreateMaybeGzip(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := WriteEdgeList(w, g); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		r, err := OpenMaybeGzip(path)
		if err != nil {
			t.Fatal(err)
		}
		g2, err := ReadEdgeList(r)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		assertSameGraph(t, g, g2)
	}
	// the .gz file must actually be gzip (magic bytes 1f 8b)
	raw, err := os.ReadFile(dir + "/compressed.txt.gz")
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Error("gz file is not gzip-compressed")
	}
	// opening a non-gzip file with .gz suffix fails cleanly
	bad := dir + "/bad.gz"
	if err := os.WriteFile(bad, []byte("not gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMaybeGzip(bad); err == nil {
		t.Error("invalid gzip accepted")
	}
	if _, err := OpenMaybeGzip(dir + "/missing.txt"); err == nil {
		t.Error("missing file accepted")
	}
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: %v vs %v", a, b)
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
}
