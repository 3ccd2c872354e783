package graphio

import (
	"bytes"
	"math/rand/v2"
	"sync"
	"testing"

	"tesc/internal/graphgen"
)

// benchEdgeList is the edge list screen-k32 registers inline: the
// 100k-node coauthorship surrogate (359,197 edges, 4.23 MB) as
// WriteEdgeList renders it, "# nodes N" header included.
var benchEdgeList = sync.OnceValue(func() []byte {
	g := graphgen.Coauthorship(graphgen.DefaultCoauthorship(1), rand.New(rand.NewPCG(11, 0xc0a0)))
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, g); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkReadEdgeList100k parses screen-k32's graph: the production
// parser (parse) and, in the same binary, the per-line string parser
// it replaced (oracle).
func BenchmarkReadEdgeList100k(b *testing.B) {
	text := benchEdgeList()
	for _, c := range []struct {
		name  string
		parse func(*bytes.Reader) error
	}{
		{"parse", func(r *bytes.Reader) error { _, err := ReadEdgeListMax(r, 1<<20); return err }},
		{"oracle", func(r *bytes.Reader) error { _, err := readEdgeListOracle(r, 1<<20); return err }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(text)))
			b.ReportAllocs()
			var r bytes.Reader
			for i := 0; i < b.N; i++ {
				r.Reset(text)
				if err := c.parse(&r); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkWriteEdgeList100k renders the same graph.
func BenchmarkWriteEdgeList100k(b *testing.B) {
	g, err := ReadEdgeList(bytes.NewReader(benchEdgeList()))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	b.SetBytes(int64(len(benchEdgeList())))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteEdgeList(&buf, g); err != nil {
			b.Fatal(err)
		}
	}
}
