// Package graphio reads and writes the on-disk formats the CLI tools
// exchange: whitespace-separated edge lists for graphs, a simple
// "event<TAB>node" text format for event occurrences, and a compact
// binary graph format for large surrogates (a 20M-node R-MAT graph
// round-trips in seconds instead of minutes).
package graphio

import (
	"bufio"
	"bytes"
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
//
// Lines are read in place, without a string per line: a plain "u v"
// line of ASCII digits and spaces is tokenised by parsePair, and every
// other line goes through parseFields. A header raises the node count
// of the one Build.
func ReadEdgeListMax(r io.Reader, maxNodes int) (*graph.Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	b := graph.NewGrowingBuilder()
	declared := -1
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if line[0] == '#' {
			var n int
			if _, err := fmt.Sscanf(string(line), "# nodes %d", &n); err == nil {
				if n > maxNodes {
					return nil, fmt.Errorf("graphio: line %d: declared %d nodes, cap is %d", lineNo, n, maxNodes)
				}
				declared = n
			}
			continue
		}
		u, v, ok := parsePair(line)
		if !ok {
			var err error
			if u, v, err = parseFields(string(line), lineNo); err != nil {
				return nil, err
			}
		}
		if u >= int64(maxNodes) || v >= int64(maxNodes) {
			return nil, fmt.Errorf("graphio: line %d: node id %d at or above cap %d", lineNo, max(u, v), maxNodes)
		}
		b.AddEdge(graph.NodeID(u), graph.NodeID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graphio: %w", err)
	}
	b.EnsureNodes(declared)
	return b.Build()
}

// maxPlainDigits bounds parsePair's IDs: nine decimal digits stay below
// 10^9 < 2^31, so the value needs no overflow check.
const maxPlainDigits = 9

// parsePair reads a plain edge line: an ID, a run of ASCII spaces, an
// ID, then the end of the line or an ASCII space (later fields are
// ignored). IDs are 1 to maxPlainDigits ASCII digits, unsigned. ok is
// false for any other line, which parseFields then decides: error
// text, signs, int32 range errors and Unicode spaces come from it alone.
func parsePair(line []byte) (u, v int64, ok bool) {
	u, i := leadingID(line)
	if i == 0 || i == len(line) || !asciiSpace(line[i]) {
		return 0, 0, false
	}
	for i < len(line) && asciiSpace(line[i]) {
		i++
	}
	v, j := leadingID(line[i:])
	if j == 0 || (i+j < len(line) && !asciiSpace(line[i+j])) {
		return 0, 0, false
	}
	return u, v, true
}

// leadingID parses s's leading ASCII digits. n is how many it read: 0
// when there are none or more than maxPlainDigits.
func leadingID(s []byte) (id int64, n int) {
	for ; n < len(s) && '0' <= s[n] && s[n] <= '9'; n++ {
		if n == maxPlainDigits {
			return 0, 0
		}
		id = id*10 + int64(s[n]-'0')
	}
	return id, n
}

// asciiSpace reports the ASCII bytes unicode.IsSpace accepts.
func asciiSpace(c byte) bool {
	return c == ' ' || '\t' <= c && c <= '\r'
}

// parseFields reads any other edge line: its first two fields
// (strings.Fields, so any Unicode space separates them) as base-10
// int32s, either sign allowed, and rejects negative IDs.
func parseFields(line string, lineNo int) (u, v int64, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return 0, 0, fmt.Errorf("graphio: line %d: want 'u v', got %q", lineNo, line)
	}
	if u, err = strconv.ParseInt(fields[0], 10, 32); err != nil {
		return 0, 0, fmt.Errorf("graphio: line %d: bad node id %q: %w", lineNo, fields[0], err)
	}
	if v, err = strconv.ParseInt(fields[1], 10, 32); err != nil {
		return 0, 0, fmt.Errorf("graphio: line %d: bad node id %q: %w", lineNo, fields[1], err)
	}
	if u < 0 || v < 0 {
		return 0, 0, fmt.Errorf("graphio: line %d: negative node id", lineNo)
	}
	return u, v, nil
}

// WriteEdgeList writes g in the ReadEdgeList format, including the
// "# nodes N" header so isolated nodes survive a round trip. Each line
// is formatted into one reused buffer.
func WriteEdgeList(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	line := make([]byte, 0, 32) // a line is at most 22 bytes
	line = strconv.AppendInt(append(line, "# nodes "...), int64(g.NumNodes()), 10)
	if _, err := bw.Write(append(line, '\n')); err != nil {
		return err
	}
	var writeErr error
	g.ForEachEdge(func(u, v graph.NodeID) bool {
		line = strconv.AppendInt(line[:0], int64(u), 10)
		line = strconv.AppendInt(append(line, ' '), int64(v), 10)
		if _, err := bw.Write(append(line, '\n')); err != nil {
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
