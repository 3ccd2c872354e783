package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeInputs writes a ring-of-cliques graph with three events — two
// sharing a clique, one elsewhere — and returns the two file paths.
func writeInputs(t *testing.T) (graphPath, eventsPath string) {
	t.Helper()
	dir := t.TempDir()
	var edges, occ strings.Builder
	const cliques, size = 6, 8
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				fmt.Fprintf(&edges, "%d %d\n", base+i, base+j)
			}
		}
		fmt.Fprintf(&edges, "%d %d\n", base, (base+size)%(cliques*size))
	}
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&occ, "a\t%d\nb\t%d\nc\t%d\n", i, i+2, 3*size+i)
	}
	graphPath = filepath.Join(dir, "g.txt")
	eventsPath = filepath.Join(dir, "ev.txt")
	if err := os.WriteFile(graphPath, []byte(edges.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(eventsPath, []byte(occ.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return graphPath, eventsPath
}

// TestPlannedModeRejectsExplicitCorrection: a planned screen reports raw
// p-values, so any explicitly set -correction other than none is an
// error, while the unset default and an explicit none run.
func TestPlannedModeRejectsExplicitCorrection(t *testing.T) {
	g, ev := writeInputs(t)
	base := []string{"-graph", g, "-events", ev, "-min-occ", "1", "-n", "20"}
	for _, tc := range []struct {
		extra []string
		ok    bool
	}{
		{[]string{"-topk", "2"}, true},
		{[]string{"-topk", "2", "-correction", "none"}, true},
		{[]string{"-topk", "2", "-correction", "fdr"}, false},
		{[]string{"-topk", "2", "-correction", "fwer"}, false},
		{[]string{"-theta", "0", "-correction", "fdr"}, false},
		{[]string{"-correction", "fwer"}, true}, // exhaustive sweep
	} {
		err := run(append(append([]string(nil), base...), tc.extra...), io.Discard, io.Discard)
		if tc.ok && err != nil {
			t.Errorf("%v: %v", tc.extra, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "-correction")) {
			t.Errorf("%v: err = %v, want the -correction conflict", tc.extra, err)
		}
	}
}

// TestBothModesRun drives the exhaustive and the planned screen end to
// end on the same inputs: both print the co-located pair first.
func TestBothModesRun(t *testing.T) {
	g, ev := writeInputs(t)
	base := []string{"-graph", g, "-events", ev, "-min-occ", "1", "-n", "30", "-tail", "positive", "-seed", "3"}
	for _, extra := range [][]string{nil, {"-topk", "1"}} {
		var out strings.Builder
		if err := run(append(append([]string(nil), base...), extra...), &out, io.Discard); err != nil {
			t.Fatalf("%v: %v", extra, err)
		}
		lines := strings.Split(out.String(), "\n")
		var first string
		for i, line := range lines {
			if strings.HasPrefix(line, "rank") && i+1 < len(lines) {
				first = lines[i+1]
			}
		}
		if f := strings.Fields(first); len(f) < 3 || f[1] != "a" || f[2] != "b" {
			t.Fatalf("%v: top row %q, want a/b\n%s", extra, first, out.String())
		}
	}
}
