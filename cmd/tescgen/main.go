// Command tescgen generates the synthetic surrogate graphs and event
// workloads used throughout the reproduction, writing them in the text
// formats the tesc command consumes.
//
// Usage:
//
//	tescgen -kind dblp -scale 0.2 -out graph.txt -events events.txt
//	tescgen -kind intrusion -nodes 20000 -out graph.txt
//	tescgen -kind twitter -scale-exp 17 -out graph.txt
//
// With -events set, a pair of positively correlated events ("pos-a",
// "pos-b") and a pair of negatively correlated events ("neg-a", "neg-b")
// are simulated on the generated graph per the paper's §5.2 methodology.
package main

import (
	"flag"
	"fmt"
	"math/rand/v2"
	"os"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/graphgen"
	"tesc/internal/graphio"
	"tesc/internal/simulate"
)

func main() {
	var (
		kind     = flag.String("kind", "dblp", "graph kind: dblp | intrusion | twitter | er")
		scale    = flag.Float64("scale", 0.2, "DBLP surrogate scale (1.0 = ~100k nodes)")
		nodes    = flag.Int("nodes", 20000, "node count for intrusion/er kinds")
		scaleExp = flag.Int("scale-exp", 15, "R-MAT exponent for twitter kind (nodes = 2^exp)")
		out      = flag.String("out", "", "output graph file (required)")
		evOut    = flag.String("events", "", "optional output event file with simulated correlated pairs")
		h        = flag.Int("h-level", 1, "vicinity level for simulated event pairs")
		occ      = flag.Int("occurrences", 0, "occurrences per simulated event (default 0.5% of nodes)")
		seed     = flag.Uint64("seed", 1, "random seed")
	)
	flag.Parse()
	if *out == "" {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*kind, *scale, *nodes, *scaleExp, *out, *evOut, *h, *occ, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "tescgen:", err)
		os.Exit(1)
	}
}

func run(kind string, scale float64, nodes, scaleExp int, out, evOut string, h, occ int, seed uint64) error {
	rng := rand.New(rand.NewPCG(seed, 0x6e6))
	var g *graph.Graph
	switch kind {
	case "dblp":
		g = graphgen.Coauthorship(graphgen.DefaultCoauthorship(scale), rng)
	case "intrusion":
		g = graphgen.Intrusion(graphgen.DefaultIntrusion(nodes), rng)
	case "twitter":
		g = graphgen.RMAT(graphgen.DefaultTwitterSurrogate(scaleExp), rng)
	case "er":
		g = graphgen.ErdosRenyi(nodes, int64(nodes)*4, rng)
	default:
		return fmt.Errorf("unknown kind %q", kind)
	}

	f, err := graphio.CreateMaybeGzip(out)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := graphio.WriteEdgeList(f, g); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d nodes, %d edges\n", out, g.NumNodes(), g.NumEdges())

	if evOut == "" {
		return nil
	}
	if occ <= 0 {
		occ = g.NumNodes() / 200
		if occ < 60 {
			occ = 60
		}
	}
	cfg := simulate.Config{H: h, Occurrences: occ}
	pos, err := simulate.PositivePair(g, cfg, rng)
	if err != nil {
		return fmt.Errorf("simulating positive pair: %w", err)
	}
	neg, err := simulate.NegativePair(g, cfg, rng)
	if err != nil {
		return fmt.Errorf("simulating negative pair: %w", err)
	}
	b := events.NewBuilder(g.NumNodes())
	b.AddAll("pos-a", pos.Va)
	b.AddAll("pos-b", pos.Vb)
	b.AddAll("neg-a", neg.Va)
	b.AddAll("neg-b", neg.Vb)

	ef, err := graphio.CreateMaybeGzip(evOut)
	if err != nil {
		return err
	}
	defer ef.Close()
	if err := graphio.WriteEvents(ef, b.Build()); err != nil {
		return err
	}
	fmt.Printf("wrote %s: events pos-a/pos-b (h=%d attraction), neg-a/neg-b (h=%d repulsion), %d occurrences each\n",
		evOut, h, h, occ)
	return nil
}
