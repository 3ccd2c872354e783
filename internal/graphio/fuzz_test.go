package graphio

import (
	"math"
	"strings"
	"testing"

	"tesc/internal/graph"
)

// graphio is the repository's only untrusted-input surface: tescd's
// inline edge_list registration and the CLI loaders feed user bytes
// straight into these parsers. The fuzz targets pin two properties:
// the parsers never panic or explode in allocation on arbitrary input
// (node universes are capped), and every accepted input round-trips
// through the writers byte-equivalently. FuzzParseGraph also holds the
// edge-list parser to readEdgeListOracle on every input.

// fuzzMaxNodes caps the parsed node universe so a three-byte hostile
// line cannot demand a gigabyte allocation mid-fuzz.
const fuzzMaxNodes = 1 << 16

func FuzzParseGraph(f *testing.F) {
	// Seeds: the documented edge-list shapes the examples and docs/API.md
	// exchange, plus header/comment/failure corners.
	f.Add("# nodes 5\n0 1\n1 2\n2 3\n3 4\n")
	f.Add("0 1\n1 2\n2 0\n")
	f.Add("# a comment\n\n0 1\t \n1 0\n0 0\n")
	f.Add("# nodes 12\n0 1\n1 2\n2 3\n3 4\n4 5\n5 6\n6 7\n7 8\n8 9\n")
	f.Add("# nodes 3\n")
	f.Add("0 1 extra ignored\n")
	f.Add("a b\n")
	f.Add("-1 2\n")
	f.Add("# nodes 99999999999\n0 1\n")
	f.Add("0 70000\n")
	f.Add("+7 3\r\n-0 5\n0\u00a01\n0\u00852\n")
	f.Add("000000001 0000000002\n2147483648 0\n")
	f.Add("0 1\n# nodes 4x\n")

	f.Fuzz(func(t *testing.T, input string) {
		if len(input) > 1<<16 {
			t.Skip("oversized input")
		}
		if diff := sameParse(input, fuzzMaxNodes); diff != "" {
			t.Fatalf("parser disagrees with the oracle on %q: %s", input, diff)
		}
		g, err := ReadEdgeListMax(strings.NewReader(input), fuzzMaxNodes)
		if err != nil {
			return // rejected cleanly
		}
		if n := g.NumNodes(); n > fuzzMaxNodes {
			t.Fatalf("accepted graph has %d nodes, above the %d cap", n, fuzzMaxNodes)
		}
		// Accepted inputs round-trip: write, re-parse, compare exactly.
		var out strings.Builder
		if err := WriteEdgeList(&out, g); err != nil {
			t.Fatalf("writing accepted graph: %v", err)
		}
		g2, err := ReadEdgeListMax(strings.NewReader(out.String()), fuzzMaxNodes)
		if err != nil {
			t.Fatalf("re-parsing written graph: %v\ninput: %q\nwritten: %q", err, input, out.String())
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: (%d,%d) -> (%d,%d)",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
		for v := 0; v < g.NumNodes(); v++ {
			a, b := g.Neighbors(graph.NodeID(v)), g2.Neighbors(graph.NodeID(v))
			if len(a) != len(b) {
				t.Fatalf("round trip changed degree of %d: %d -> %d", v, len(a), len(b))
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("round trip changed neighbors of %d: %v -> %v", v, a, b)
				}
			}
		}
	})
}

func FuzzParseEvents(f *testing.F) {
	// Seeds: the documented "event node [intensity]" shapes, §6
	// intensities included, plus corners the parser must reject.
	f.Add("wireless\t0\nwireless\t3\nsensor\t3\nsensor\t4\n", 16)
	f.Add("kw 2 3.5\nkw 4 0.25\n", 16)
	f.Add("# comment\n\ne 0\n", 4)
	f.Add("e 99\n", 16)
	f.Add("e -1\n", 16)
	f.Add("e 0 NaN\n", 4)
	f.Add("e 0 +Inf\n", 4)
	f.Add("e 0 -3\n", 4)
	f.Add("e\n", 4)

	f.Fuzz(func(t *testing.T, input string, universe int) {
		if len(input) > 1<<16 {
			t.Skip("oversized input")
		}
		universe = universe%fuzzMaxNodes + 1
		if universe < 1 {
			universe = 1
		}
		s, err := ReadEvents(strings.NewReader(input), universe)
		if err != nil {
			return // rejected cleanly
		}
		// Every accepted intensity is positive and finite.
		for _, name := range s.Names() {
			for _, v := range s.Occurrences(name) {
				w := s.Intensity(name, v)
				if !(w > 0) || math.IsInf(w, 0) {
					t.Fatalf("accepted non-finite/non-positive intensity %g for %q@%d", w, name, v)
				}
			}
		}
		// Accepted inputs round-trip through the writer.
		var out strings.Builder
		if err := WriteEvents(&out, s); err != nil {
			t.Fatalf("writing accepted store: %v", err)
		}
		s2, err := ReadEvents(strings.NewReader(out.String()), universe)
		if err != nil {
			t.Fatalf("re-parsing written store: %v\ninput: %q\nwritten: %q", err, input, out.String())
		}
		if s2.NumEvents() != s.NumEvents() {
			t.Fatalf("round trip changed event count: %d -> %d", s.NumEvents(), s2.NumEvents())
		}
		for _, name := range s.Names() {
			occ, occ2 := s.Occurrences(name), s2.Occurrences(name)
			if len(occ) != len(occ2) {
				t.Fatalf("round trip changed |V_%q|: %d -> %d", name, len(occ), len(occ2))
			}
			for i := range occ {
				if occ[i] != occ2[i] {
					t.Fatalf("round trip changed occurrences of %q: %v -> %v", name, occ, occ2)
				}
				if w, w2 := s.Intensity(name, occ[i]), s2.Intensity(name, occ[i]); w != w2 {
					t.Fatalf("round trip changed intensity of %q@%d: %g -> %g", name, occ[i], w, w2)
				}
			}
		}
	})
}
