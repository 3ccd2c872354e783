package screen

import (
	"fmt"
	"math/rand/v2"
	"testing"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// memoFixture builds a seeded graph and a K-event store whose h-hop
// reference populations overlap heavily, so the cross-pair memo gets
// real hits.
func memoFixture(t *testing.T, directed bool, k, occ int, seed uint64) (*graph.Graph, *events.Store) {
	t.Helper()
	rng := rand.New(rand.NewPCG(seed, seed^0x51))
	const n = 600
	var b *graph.Builder
	if directed {
		b = graph.NewDirectedBuilder(n)
	} else {
		b = graph.NewBuilder(n)
	}
	for i := 0; i < 4*n; i++ {
		b.AddEdge(graph.NodeID(rng.IntN(n)), graph.NodeID(rng.IntN(n)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	eb := events.NewBuilder(n)
	for e := 0; e < k; e++ {
		for i := 0; i < occ; i++ {
			eb.Add(fmt.Sprintf("ev-%d", e), graph.NodeID(rng.IntN(n)))
		}
	}
	return g, eb.Build()
}

// TestMemoBitIdentical is the sweep-level differential test: screening
// with and without the cross-pair density memo produces reports
// bit-identical to the reference sweep, over directed and undirected
// graphs at h = 1..3, while the memo actually deduplicates traversals.
func TestMemoBitIdentical(t *testing.T) {
	for _, directed := range []bool{false, true} {
		for h := 1; h <= 3; h++ {
			t.Run(fmt.Sprintf("directed=%v/h=%d", directed, h), func(t *testing.T) {
				g, store := memoFixture(t, directed, 5, 25, uint64(h)*17+1)
				cfg := Config{H: h, SampleSize: 200, Seed: 42, Workers: 4}
				pairs := AllPairs(store, 1)

				memoRes, err := Run(g, store, pairs, cfg)
				if err != nil {
					t.Fatal(err)
				}
				noMemoCfg := cfg
				noMemoCfg.NoMemo = true
				refRes, err := Run(g, store, pairs, noMemoCfg)
				if err != nil {
					t.Fatal(err)
				}

				raw, refBFS := referenceSweep(t, g, store, pairs, cfg)
				want := referenceRun(raw, cfg)
				sameRun(t, "memo", memoRes, want)
				sameRun(t, "no memo", refRes, want)
				if refRes.MemoHits != 0 {
					t.Fatalf("memo-less sweep reported %d memo hits", refRes.MemoHits)
				}
				if refRes.BFSRuns != refBFS {
					t.Fatalf("memo-less sweep paid %d traversals, reference %d", refRes.BFSRuns, refBFS)
				}
				if memoRes.MemoHits == 0 {
					t.Fatal("memo path reported zero hits on an overlapping workload")
				}
				if memoRes.BFSRuns >= refRes.BFSRuns {
					t.Fatalf("memo did not reduce traversals: %d vs %d", memoRes.BFSRuns, refRes.BFSRuns)
				}
				if memoRes.BFSRuns+memoRes.MemoHits < refRes.BFSRuns {
					t.Fatalf("runs+hits %d < reference evaluations %d: evaluations lost",
						memoRes.BFSRuns+memoRes.MemoHits, refRes.BFSRuns)
				}
			})
		}
	}
}

// TestMemoWithEnginePool pins that lending pooled BFS engines to the
// sweep changes nothing in the report.
func TestMemoWithEnginePool(t *testing.T) {
	g, store := memoFixture(t, false, 4, 30, 7)
	pairs := AllPairs(store, 1)
	cfg := Config{H: 2, SampleSize: 150, Seed: 9, Workers: 3}
	plain, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Engines = graph.NewEnginePool(g)
	pooled, err := Run(g, store, pairs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := referenceSweep(t, g, store, pairs, cfg)
	want := referenceRun(raw, cfg)
	sameRun(t, "plain", plain, want)
	sameRun(t, "pooled", pooled, want)
}

// TestScreenSampleRoutesThroughLogLinearKendall audits the satellite
// requirement: every screening test at the default and paper sample
// sizes (>= stats.KendallNaiveCutoff) must route through Knight's
// O(n log n) Kendall, never the quadratic reference kernel.
func TestScreenSampleRoutesThroughLogLinearKendall(t *testing.T) {
	for _, n := range []int{64, 300, 900} {
		if stats.UseNaiveKendall(n) {
			t.Fatalf("sample size %d would use the quadratic Kendall kernel", n)
		}
	}
}
