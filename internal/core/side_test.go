package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/stats"
	"tesc/internal/vicinity"
)

// sideCase is one input of the event-side differential check.
type sideCase struct {
	seed     uint64
	n, m     int // nodes; edges among the first n - n/4, the rest isolated
	h        int
	occ      int // raw occurrences per event, drawn with replacement
	sampler  int // index into sideSamplers
	size     int // sample size; n or more asks for every population node
	spearman bool
}

// sideSamplers names the samplers sideCase.sampler picks from; the
// last draws out-of-sight nodes too.
var sideSamplers = []string{"batch-bfs", "whole-graph", "importance", "importance-batch3", "rejection", "all-nodes"}

func (c sideCase) String() string {
	return fmt.Sprintf("seed=%d n=%d m=%d h=%d occ=%d sampler=%s size=%d spearman=%v",
		c.seed, c.n, c.m, c.h, c.occ, sideSamplers[c.sampler], c.size, c.spearman)
}

// sideProblem builds c's graph, its full h <= 3 index and a problem
// whose raw occurrence lists repeat nodes, overlap each other and may
// fall on isolated nodes.
func sideProblem(t testing.TB, c sideCase) (*Problem, *vicinity.Index) {
	t.Helper()
	rng := rand.New(rand.NewPCG(c.seed, 0x51de))
	connected := max(c.n-c.n/4, 1)
	b := graph.NewBuilder(c.n)
	for range c.m {
		b.AddEdge(graph.NodeID(rng.IntN(connected)), graph.NodeID(rng.IntN(connected)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	raw := func() []graph.NodeID {
		vs := make([]graph.NodeID, c.occ)
		for i := range vs {
			vs[i] = graph.NodeID(rng.IntN(c.n))
		}
		return append(vs, vs[:c.occ/3]...) // repeats
	}
	ra, rb := raw(), raw()
	rb = append(rb, ra[:c.occ/2]...) // overlap
	idx, err := vicinity.Build(g, 3, vicinity.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	return MustNewProblem(g, graph.NewNodeSet(c.n, ra), graph.NewNodeSet(c.n, rb)), idx
}

func sideSampler(kind int, idx *vicinity.Index) Sampler {
	switch sideSamplers[kind] {
	case "whole-graph":
		return &WholeGraphSampler{}
	case "importance":
		return &ImportanceSampler{Index: idx}
	case "importance-batch3":
		return &ImportanceSampler{Index: idx, BatchSize: 3}
	case "rejection":
		return &RejectionSampler{Index: idx}
	case "all-nodes":
		return &AllNodesSampler{}
	}
	return &BatchBFSSampler{}
}

// unionCounts returns each record's CountUnion, the weighted path's
// input to ω.
func unionCounts(ds []Density) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d.CountUnion)
	}
	return out
}

func sameBits(t testing.TB, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sameScore(t testing.TB, what string, got, want Result) {
	t.Helper()
	sameBits(t, what+" tau/z/p", []float64{got.Tau, got.Z, got.P}, []float64{want.Tau, want.Z, want.P})
}

// checkEventSide holds the event side to the reference side on c: at
// h = 1 the same sample's Density records, densities and ω from
// evalEvents and EvalAll, and τ, z and p scored from each; at every h
// Test's result (whichever side it ran) against the reference side's,
// all bit-identical. At h >= 2 Test must stay on the reference side.
func checkEventSide(t testing.TB, c sideCase) {
	t.Helper()
	p, idx := sideProblem(t, c)
	sampler := sideSampler(c.sampler, idx)
	opts := Options{
		H: c.h, SampleSize: c.size, Alpha: 0.05, Sampler: sampler,
		Alternative: stats.Alternative(c.seed % 3),
		Rand:        rand.New(rand.NewPCG(c.seed, 7)),
	}
	if c.spearman {
		opts.Statistic = SpearmanRho
	}
	got, err := Test(p, opts)

	bfs := graph.NewBFS(p.G)
	sample, serr := sampler.SampleReferences(p, c.h, c.size, rand.New(rand.NewPCG(c.seed, 7)), bfs)
	_, importance := sampler.(*ImportanceSampler)
	switch {
	case importance && c.spearman:
		if !errors.Is(err, ErrSpearmanWeighted) {
			t.Fatalf("%v: Spearman on a weighted sample: err = %v", c, err)
		}
		return
	case serr != nil:
		if err == nil || err.Error() != serr.Error() {
			t.Fatalf("%v: Test err = %v, sampler err = %v", c, err, serr)
		}
		return
	case err != nil:
		t.Fatalf("%v: %v", c, err)
	}

	ref := NewDensityEvaluatorBFS(p, c.h, bfs)
	sa, sb, ds := ref.EvalAll(sample.Nodes)
	scored := func(sa, sb, omega []float64) (Result, []float64) {
		r := Result{SA: sa, SB: sb, Nodes: sample.Nodes, Alternative: opts.Alternative, Alpha: opts.Alpha}
		if !sample.Weighted() {
			omega = nil
		}
		if err := r.score(opts.Statistic, sample.Freq, omega); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		return r, omega
	}
	want, wantOmega := scored(sa, sb, unionCounts(ds))
	if c.h == 1 {
		ev := NewDensityEvaluatorBFS(p, c.h, bfs)
		eds := make([]Density, len(sample.Nodes))
		esa, esb, err := ev.evalEvents(nil, sample.Nodes, func(i int, d Density) { eds[i] = d })
		if err != nil {
			t.Fatal(err)
		}
		for i := range ds {
			if eds[i] != ds[i] {
				t.Fatalf("%v: node %d: event side %+v, reference side %+v", c, sample.Nodes[i], eds[i], ds[i])
			}
		}
		sameBits(t, "sa", esa, sa)
		sameBits(t, "sb", esb, sb)
		if ev.BFSCount != int64(p.Union.Len()) {
			t.Fatalf("%v: event side ran %d traversals, want |Va∪b| = %d", c, ev.BFSCount, p.Union.Len())
		}
		evRes, evOmega := scored(esa, esb, unionCounts(eds))
		sameBits(t, "omega", evOmega, wantOmega)
		sameScore(t, c.String()+" event side", evRes, want)
	}

	if !slices.Equal(got.Nodes, sample.Nodes) {
		t.Fatalf("%v: Test drew another sample", c)
	}
	sameBits(t, "Test sa", got.SA, sa)
	sameBits(t, "Test sb", got.SB, sb)
	sameScore(t, c.String()+" Test", got, want)
	if got.Significant != want.Significant {
		t.Fatalf("%v: Significant %v, want %v", c, got.Significant, want.Significant)
	}
	switch {
	case c.h > 1 && got.DensityBFS != int64(got.N):
		t.Fatalf("%v: DensityBFS %d at h = %d, want N = %d", c, got.DensityBFS, c.h, got.N)
	case got.DensityBFS != int64(got.N) && got.DensityBFS != int64(p.Union.Len()):
		t.Fatalf("%v: DensityBFS %d is neither N = %d nor |Va∪b| = %d", c, got.DensityBFS, got.N, p.Union.Len())
	}
}

// TestEventSideMatchesReferenceSide runs the differential check over
// seeded random cases: h = 1..3 (the event side serves h = 1 only),
// every sampler, Kendall and Spearman,
// samples that hold every population node and samples that do not.
func TestEventSideMatchesReferenceSide(t *testing.T) {
	for seed := uint64(1); seed <= 240; seed++ {
		n := 20 + int(seed*37%280)
		c := sideCase{
			seed: seed, n: n, m: int(seed*13%5+1) * n / 2,
			h:       1 + int(seed%3),
			occ:     1 + int(seed*7%30),
			sampler: int(seed/3) % len(sideSamplers),
			size:    2 + int(seed*11)%n,
		}
		if seed%4 == 0 {
			c.size = n // the whole population
		}
		c.spearman = seed%5 == 0
		checkEventSide(t, c)
	}
}

// FuzzEventSideDensity is the differential check on fuzzed graphs,
// events and samplers.
func FuzzEventSideDensity(f *testing.F) {
	f.Add(uint64(1), uint16(50), uint16(60), uint8(0), uint8(5), uint8(0), uint16(900), false)
	f.Add(uint64(2), uint16(120), uint16(300), uint8(1), uint8(12), uint8(2), uint16(40), false)
	f.Add(uint64(3), uint16(200), uint16(150), uint8(2), uint8(30), uint8(4), uint16(100), true)
	f.Add(uint64(4), uint16(9), uint16(3), uint8(0), uint8(2), uint8(5), uint16(9), true)
	f.Fuzz(func(t *testing.T, seed uint64, n, m uint16, h, occ, kind uint8, size uint16, spearman bool) {
		c := sideCase{
			seed: seed, n: 2 + int(n%400), h: 1 + int(h%3), occ: 1 + int(occ%60),
			sampler: int(kind) % len(sideSamplers), spearman: spearman,
		}
		c.m = int(m) % (4 * c.n)
		c.size = 2 + int(size)%(c.n+1)
		checkEventSide(t, c)
	})
}

// TestDensitySideRuleSums pins the rule on exact sums: the event side
// runs only when its ball sum is strictly smaller.
func TestDensitySideRuleSums(t *testing.T) {
	g := graph.Star(5) // centre 0: |V^1_0| = 5, a leaf's |V^1| = 2
	for _, c := range []struct {
		refs, events []graph.NodeID
		want         bool
	}{
		{[]graph.NodeID{0, 1}, []graph.NodeID{1}, true},          // 2 < 7
		{[]graph.NodeID{1, 2}, []graph.NodeID{3, 4}, false},      // 4 = 4
		{[]graph.NodeID{1, 2}, []graph.NodeID{0}, false},         // 5 > 4
		{[]graph.NodeID{1, 2, 3}, []graph.NodeID{0}, true},       // 5 < 6
		{[]graph.NodeID{1, 2, 3, 4}, []graph.NodeID{0, 1}, true}, // 7 < 8
	} {
		if got := eventSideCheaper(g, c.refs, c.events); got != c.want {
			t.Errorf("refs %v events %v: event side %v, want %v", c.refs, c.events, got, c.want)
		}
	}
}

// TestDensitySideRule checks which side Test runs through DensityBFS:
// |Va∪b| on the event side, N on the reference side. Only an h = 1
// read with unit intensities whose event-side sum is smaller takes the
// event side; every h = 2 read (batch-bfs, or an indexed sampler like
// churn-rw's importance read, sparse or dense) stays on the reference
// side, as do an intensity-weighted problem and a dense h = 1 read.
func TestDensitySideRule(t *testing.T) {
	g := randomGraph(t, 2000, 5000, 41)
	idx, err := vicinity.Build(g, 2, vicinity.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	small := randomProblem(t, g, 8, false, 42)
	dense := randomProblem(t, g, 900, false, 43)
	weighted := randomProblem(t, g, 8, true, 42)
	for _, c := range []struct {
		name    string
		p       *Problem
		h       int
		sampler Sampler
		event   bool
	}{
		{"batch-bfs/h=1", small, 1, &BatchBFSSampler{}, true},
		{"importance/h=1", small, 1, &ImportanceSampler{Index: idx}, true},
		{"batch-bfs/h=2", small, 2, &BatchBFSSampler{}, false},
		{"importance/h=2", small, 2, &ImportanceSampler{Index: idx}, false},
		{"rejection/h=2", small, 2, &RejectionSampler{Index: idx}, false},
		{"importance/h=2/dense", dense, 2, &ImportanceSampler{Index: idx}, false},
		{"batch-bfs/h=1/intensities", weighted, 1, &BatchBFSSampler{}, false},
		// The occurrences' ball sum dominates: the event side is dearer.
		{"batch-bfs/h=1/dense", dense, 1, &BatchBFSSampler{}, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			res, err := Test(c.p, Options{H: c.h, SampleSize: 300, Alpha: 0.05, Sampler: c.sampler,
				Rand: rand.New(rand.NewPCG(5, 5))})
			if err != nil {
				t.Fatal(err)
			}
			want := int64(res.N)
			if c.event {
				want = int64(c.p.Union.Len())
			}
			if res.DensityBFS != want {
				t.Fatalf("DensityBFS = %d, want %d (N = %d, |Va∪b| = %d)", res.DensityBFS, want, res.N, c.p.Union.Len())
			}
			if c.h > 1 {
				return
			}
			refSum, eventSum := 0, 0
			for _, r := range res.Nodes {
				refSum += ballSize(g, r)
			}
			for _, a := range c.p.EventNodes() {
				eventSum += ballSize(g, a)
			}
			if c.event && eventSum >= refSum {
				t.Fatalf("event side ran with ball sums: references %d, events %d", refSum, eventSum)
			}
			if c.p == dense && eventSum < refSum {
				t.Fatalf("dense case is not dense: ball sums: references %d, events %d", refSum, eventSum)
			}
		})
	}
}

// TestPositionsTableReuse: release leaves the whole table empty, so a
// reused table serves a smaller or larger sample next, and every probe
// finds exactly the sample's nodes.
func TestPositionsTableReuse(t *testing.T) {
	var tab positions
	rng := rand.New(rand.NewPCG(3, 3))
	for _, n := range []int{300, 20, 900, 2, 300} {
		rs := make([]graph.NodeID, 0, n)
		seen := map[graph.NodeID]bool{}
		for len(rs) < n {
			if v := graph.NodeID(rng.IntN(5000)); !seen[v] {
				seen[v] = true
				rs = append(rs, v)
			}
		}
		tab.reset(rs)
		for v := graph.NodeID(0); v < 5000; v++ {
			tab.bump(v, 1, 0)
		}
		for i, c := range tab.counts {
			if c.a != 1 || c.u != 1 {
				t.Fatalf("n=%d: position %d (node %d) counted %+v, want one visit", n, i, rs[i], c)
			}
		}
		tab.release()
		for j, s := range tab.slots[:cap(tab.slots)] {
			if s.node != -1 {
				t.Fatalf("n=%d: slot %d holds node %d after release", n, j, s.node)
			}
		}
	}
}

// TestEventSideCanceled: the event side checks its context before the
// pass and every densityChunk members, and stops with ErrCanceled.
func TestEventSideCanceled(t *testing.T) {
	g := randomGraph(t, 3000, 6000, 8)
	p := randomProblem(t, g, 200, false, 8) // more than densityChunk members
	rs := allNodes(500)
	for _, k := range []int{1, 2} {
		ctx := &nthCheckCtx{Context: canceledCtx(), n: k}
		ev := NewDensityEvaluatorBFS(p, 1, graph.NewBFS(g))
		if _, _, err := ev.evalEvents(ctx, rs, nil); !errors.Is(err, ErrCanceled) {
			t.Fatalf("canceled at check %d: err = %v", k, err)
		}
		if want := int64((k - 1) * densityChunk); ev.BFSCount != want {
			t.Fatalf("canceled at check %d after %d traversals, want %d", k, ev.BFSCount, want)
		}
	}
}

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}
