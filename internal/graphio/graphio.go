// Package graphio reads and writes the on-disk formats the CLI tools
// exchange: whitespace-separated edge lists for graphs, a simple
// "event<TAB>node" text format for event occurrences, and a compact
// binary graph format for large surrogates (a 20M-node R-MAT graph
// round-trips in seconds instead of minutes).
package graphio

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"

	"tesc/internal/events"
	"tesc/internal/graph"
)

// OpenMaybeGzip opens a file for reading, transparently decompressing it
// when its name ends in ".gz" — surrogate graphs at Twitter scale are
// several GB as text but compress an order of magnitude. Close the
// returned ReadCloser when done.
func OpenMaybeGzip(path string) (io.ReadCloser, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("graphio: opening gzip %s: %w", path, err)
	}
	return &gzipReadCloser{zr: zr, f: f}, nil
}

// CreateMaybeGzip creates a file for writing, compressing when the name
// ends in ".gz".
func CreateMaybeGzip(path string) (io.WriteCloser, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if !strings.HasSuffix(path, ".gz") {
		return f, nil
	}
	return &gzipWriteCloser{zw: gzip.NewWriter(f), f: f}, nil
}

type gzipReadCloser struct {
	zr *gzip.Reader
	f  *os.File
}

func (g *gzipReadCloser) Read(p []byte) (int, error) { return g.zr.Read(p) }

func (g *gzipReadCloser) Close() error {
	zerr := g.zr.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

type gzipWriteCloser struct {
	zw *gzip.Writer
	f  *os.File
}

func (g *gzipWriteCloser) Write(p []byte) (int, error) { return g.zw.Write(p) }

func (g *gzipWriteCloser) Close() error {
	zerr := g.zw.Close()
	ferr := g.f.Close()
	if zerr != nil {
		return zerr
	}
	return ferr
}

// ReadEdgeList parses a text edge list: one "u v" pair per line,
// whitespace separated, '#' starting a comment line, blank lines
// ignored. Node count is max ID + 1 unless an optional header line
// "# nodes N" raises it.
func ReadEdgeList(r io.Reader) (*graph.Graph, error) {
	return ReadEdgeListMax(r, graph.MaxNodes)
}

// ReadEdgeListMax is ReadEdgeList with an explicit cap on the node
// universe: any node ID or "# nodes N" header at or above maxNodes is
// rejected before anything is allocated for it. The node count drives
// the graph's O(n) allocations, so a caller handing the parser
// untrusted input (the tescd inline edge_list endpoint, the fuzz
// harness) caps it to keep a three-byte line like "0 2000000000" from
// ballooning into gigabytes.
func ReadEdgeListMax(r io.Reader, maxNodes int) (*graph.Graph, error) {
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

// WriteEdgeList writes g in the ReadEdgeList format, including the
// "# nodes N" header so isolated nodes survive a round trip.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
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

// ReadEvents parses the event occurrence format: one "event<TAB>node"
// (or space-separated) record per line, '#' comments, with an optional
// third column holding a positive intensity (§6's event-intensity
// extension; omitted means 1). The universe size must be supplied
// (normally the graph's node count).
func ReadEvents(r io.Reader, universe int) (*events.Store, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	b := events.NewBuilder(universe)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graphio: line %d: want 'event node', got %q", lineNo, line)
		}
		name := fields[0]
		v, err := strconv.ParseInt(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graphio: line %d: bad node id %q: %w", lineNo, fields[1], err)
		}
		if v < 0 || int(v) >= universe {
			return nil, fmt.Errorf("graphio: line %d: node %d outside universe [0,%d)", lineNo, v, universe)
		}
		if len(fields) >= 3 {
			w, err := strconv.ParseFloat(fields[2], 64)
			// Intensities must be positive and finite: NaN compares
			// false to everything (so a plain w <= 0 check passes it)
			// and ±Inf would poison every downstream weighted sum.
			if err != nil || math.IsNaN(w) || math.IsInf(w, 0) || w <= 0 {
				return nil, fmt.Errorf("graphio: line %d: bad intensity %q", lineNo, fields[2])
			}
			b.AddWeighted(name, graph.NodeID(v), w)
		} else {
			b.Add(name, graph.NodeID(v))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	return b.Build(), nil
}

// WriteEvents writes every event occurrence of the store in ReadEvents
// format, events sorted by name, nodes ascending. The intensity column
// is written only for events carrying non-unit intensities.
func WriteEvents(w io.Writer, s *events.Store) error {
	bw := bufio.NewWriter(w)
	for _, name := range s.Names() {
		weighted := s.Weighted(name)
		for _, v := range s.Occurrences(name) {
			var err error
			if weighted {
				_, err = fmt.Fprintf(bw, "%s\t%d\t%g\n", name, v, s.Intensity(name, v))
			} else {
				_, err = fmt.Fprintf(bw, "%s\t%d\n", name, v)
			}
			if err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
