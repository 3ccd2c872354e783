package graphio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/graphgen"
)

// readEdgeListOracle is the straightforward edge-list parser
// ReadEdgeListMax replaced: one string per line, strings.Fields and
// strconv.ParseInt on every edge, and a second build when a
// "# nodes N" header raises the node count. The differential tests and
// FuzzParseGraph hold ReadEdgeListMax to it: same accept or reject,
// same error text, same node count and rows.
func readEdgeListOracle(r io.Reader, maxNodes int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	b := graph.NewGrowingBuilder()
	declared := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			var n int
			if _, err := fmt.Sscanf(line, "# nodes %d", &n); err == nil {
				if n > maxNodes {
					return nil, fmt.Errorf("graphio: line %d: declared %d nodes, cap is %d", lineNo, n, maxNodes)
				}
				declared = n
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'u v', got %q", lineNo, line)
		}
		u, err := strconv.ParseInt(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad node id %q: %w", lineNo, fields[0], err)
		}
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad node id %q: %w", lineNo, fields[1], err)
		}
		if u < 0 || v < 0 {
			return nil, fmt.Errorf("graphio: line %d: negative node id", lineNo)
		}
		if u >= int64(maxNodes) || v >= int64(maxNodes) {
			return nil, fmt.Errorf("graphio: line %d: node id %d at or above cap %d", lineNo, max(u, v), maxNodes)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	g, err := b.Build()
	if err != nil {
		return nil, err
	}
	if declared > g.NumNodes() {
		// rebuild with the declared (larger) universe to keep isolated
		// tail nodes
		b2 := graph.NewBuilder(declared)
		g.ForEachEdge(func(u, v graph.NodeID) bool { b2.AddEdge(u, v); return true })
		return b2.Build()
	}
	return g, nil
}

// writeEdgeListFmt is the fmt.Fprintf writer WriteEdgeList replaced.
func writeEdgeListFmt(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# nodes %d\n", g.NumNodes()); err != nil {
		return err
	}
	var writeErr error
	g.ForEachEdge(func(u, v graph.NodeID) bool {
		if _, err := fmt.Fprintf(bw, "%d %d\n", u, v); err != nil {
			writeErr = err
			return false
		}
		return true
	})
	if writeErr != nil {
		return writeErr
	}
	return bw.Flush()
}

// sameParse reports how ReadEdgeListMax and readEdgeListOracle differ
// on input, or "" when they agree: both reject with the same error
// text, or both accept with the same node count and rows.
func sameParse(input string, maxNodes int) string {
	g, err := ReadEdgeListMax(strings.NewReader(input), maxNodes)
	want, wantErr := readEdgeListOracle(strings.NewReader(input), maxNodes)
	switch {
	case (err == nil) != (wantErr == nil):
		return fmt.Sprintf("error %v, oracle %v", err, wantErr)
	case err != nil:
		if err.Error() != wantErr.Error() {
			return fmt.Sprintf("error %q, oracle %q", err, wantErr)
		}
		return ""
	case g.NumNodes() != want.NumNodes() || g.NumEdges() != want.NumEdges():
		return fmt.Sprintf("%d nodes, %d edges; oracle %d, %d", g.NumNodes(), g.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for v := 0; v < g.NumNodes(); v++ {
		if a, b := g.Neighbors(graph.NodeID(v)), want.Neighbors(graph.NodeID(v)); !slices.Equal(a, b) {
			return fmt.Sprintf("row %d %v, oracle %v", v, a, b)
		}
	}
	return ""
}

func TestReadEdgeListMatchesOracle(t *testing.T) {
	const cap16 = 1 << 16
	cases := []struct {
		name, input string
		maxNodes    int // 0: cap16
	}{
		{"crlf", "0 1\r\n1 2\r\n\r\n2 0\r\n", 0},
		{"tabs", "0\t1\n1\t\t2\t\n\t3 \t 4\n", 0},
		{"vt-ff", "0\v1\n1\f2\f\n\f3 4\v\n", 0},
		{"cr-inside", "0\r1\n", 0},
		{"nbsp-separator", "0\u00a01\n", 0},
		{"nbsp-trailing", "0 1\u00a0\n\u00a02 3\n", 0},
		{"nbsp-after-id", "0 1\u00a0x\n", 0},
		{"nel-separator", "0\u00851\n", 0},
		{"nel-after-first", "0\u0085 1\n", 0},
		{"raw-nbsp-byte", "0\xa01\n", 0},
		{"raw-nbsp-after-pair", "0 1\xa0\n", 0},
		{"plus", "+7 3\n", 0},
		{"minus-zero", "-0 5\n", 0},
		{"leading-zeros", "007 0003\n", 0},
		{"digits-9", "000000001 000000002\n", 0},
		{"digits-10", "0000000001 2\n", 0},
		{"digits-11", "00000000001 2\n1 00000000003\n", 0},
		{"nine-digit-over-cap", "999999999 0\n", 0},
		{"ten-digit-over-cap", "1000000000 0\n", 0},
		{"eleven-digit-range", "0 99999999999\n", 0},
		{"int32-max", "2147483647 0\n", 0},
		{"int32-max-cap-max", "2147483647 0\n", graph.MaxNodes},
		{"int32-max-plus-one", "2147483648 0\n", 0},
		{"int32-min", "-2147483648 0\n", 0},
		{"trailing-fields", "0 1 2 3\n1 2 x\n2 3\t# c\n", 0},
		{"trailing-space", "0 1 \n", 0},
		{"header-after-edges", "0 1\n# nodes 5\n", 0},
		{"header-below-max-id", "# nodes 2\n0 7\n", 0},
		{"header-above-cap", "# nodes 70000\n0 1\n", 0},
		{"header-at-cap", "# nodes 65536\n0 1\n", 0},
		{"header-overflows-int", "# nodes 99999999999999999999999\n0 1\n", 0},
		{"header-negative", "# nodes -3\n0 1\n", 0},
		{"header-suffix", "# nodes 4x\n0 1\n", 0},
		{"header-no-space", "#nodes 6\n0 1\n", 0},
		{"header-tab", "#\tnodes\t6\n0 1\n", 0},
		{"headers-last-wins", "# nodes 9\n# nodes 3\n0 1\n", 0},
		{"header-only", "# nodes 3\n", 0},
		{"comment", "#x\n0 1\n#\n", 0},
		{"empty", "", 0},
		{"blank-lines", "\n \n\t\n", 0},
		{"long-line", "0 1\n" + strings.Repeat("1", 1<<20+1) + " 2\n", 0},
		{"long-comment", "0 1\n#" + strings.Repeat(" ", 1<<20) + "\n", 0},
		{"one-field", "0\n", 0},
		{"non-numeric", "a b\n", 0},
		{"non-numeric-second", "0 x\n", 0},
		{"negative", "-1 2\n", 0},
		{"negative-second", "1 -2\n", 0},
		{"hex", "0x1 2\n", 0},
		{"underscore", "1_0 2\n", 0},
		{"digit-then-letter", "1a 2\n", 0},
		{"second-then-letter", "1 2a\n", 0},
		{"second-then-sign", "1 2-3\n", 0},
		{"arabic-digit", "٣ 4\n", 0},
		{"id-at-cap", "65536 0\n", 0},
		{"id-below-cap", "65535 0\n", 0},
		{"error-line-number", "0 1\n\n# c\n2 x\n", 0},
		{"self-loop-and-duplicates", "1 1\n0 1\n1 0\n0 1\n", 0},
	}
	for _, c := range cases {
		maxNodes := c.maxNodes
		if maxNodes == 0 {
			maxNodes = cap16
		}
		if diff := sameParse(c.input, maxNodes); diff != "" {
			t.Errorf("%s: %s", c.name, diff)
		}
	}
}

// TestWriteEdgeListMatchesFmt checks the writer's bytes against the
// fmt writer on random graphs with isolated tail nodes.
func TestWriteEdgeListMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewPCG(43, 2))
	for trial := 0; trial < 20; trial++ {
		core := 50 + rng.IntN(2000)
		g := graphgen.ErdosRenyi(core, int64(rng.IntN(3*core)), rng)
		b := graph.NewBuilder(core + rng.IntN(50))
		g.ForEachEdge(func(u, v graph.NodeID) bool { b.AddEdge(u, v); return true })
		g = b.MustBuild()
		var got, want bytes.Buffer
		if err := WriteEdgeList(&got, g); err != nil {
			t.Fatal(err)
		}
		if err := writeEdgeListFmt(&want, g); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("trial %d (%d nodes): writer output differs from fmt", trial, g.NumNodes())
		}
	}
}
