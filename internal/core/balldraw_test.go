package core

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"tesc/internal/graph"
	"tesc/internal/sampling"
	"tesc/internal/vicinity"
)

// TestBallDrawMatchesSampleKInPlace pins ballDrawer against its
// definition: for every node, depth and k, the draw equals
// SampleKInPlace over the materialized ball and leaves the rng in the
// same state.
func TestBallDrawMatchesSampleKInPlace(t *testing.T) {
	p, _ := erProblem(t, 300, 900, 1, 1, 91)
	e, oe := graph.NewBFS(p.G), graph.NewBFS(p.G)
	for _, h := range []int{1, 2, 3} {
		d := ballDrawer{e: e, h: h}
		for v := graph.NodeID(0); int(v) < p.G.NumNodes(); v += 3 {
			size := len(oe.Collect([]graph.NodeID{v}, h))
			for _, k := range []int{1, 2, 3, 6, size + 1} {
				seed := uint64(v)*31 + uint64(h*7+k)
				rng, orng := rand.New(rand.NewPCG(seed, 1)), rand.New(rand.NewPCG(seed, 1))
				got, err := d.draw(v, size, k, rng)
				if err != nil {
					t.Fatal(err)
				}
				want := sampling.SampleKInPlace(oe.Collect([]graph.NodeID{v}, h), 0, k, orng)
				if !slices.Equal(got, want) || rng.Uint64() != orng.Uint64() {
					t.Fatalf("v=%d h=%d k=%d: drew %v, SampleKInPlace %v", v, h, k, got, want)
				}
			}
		}
	}
}

// oracleImportance is ImportanceSampler with each event node's ball
// materialized by Collect and drawn with SampleKInPlace: the definition
// the sparse draw must reproduce bit for bit.
func oracleImportance(p *Problem, idx *vicinity.Index, h, n, batch int, rng *rand.Rand) (RefSample, error) {
	e := graph.NewBFS(p.G)
	batch = max(batch, 1)
	eventNodes := p.EventNodes()
	alias, err := sampling.NewAlias(idx.Weights(eventNodes, h))
	if err != nil {
		return RefSample{}, err
	}
	st := SamplerStats{Population: -1}
	pos := make(map[graph.NodeID]int, n)
	nodes := make([]graph.NodeID, 0, n)
	freq := make([]int, 0, n)
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		v := eventNodes[alias.Draw(rng)]
		vic := e.Collect([]graph.NodeID{v}, h)
		st.BFSCount++
		for _, r := range sampling.SampleKInPlace(vic, 0, batch, rng) {
			st.Draws++
			if i, ok := pos[r]; ok {
				freq[i]++
			} else {
				pos[r] = len(nodes)
				nodes = append(nodes, r)
				freq = append(freq, 1)
			}
			if len(nodes) >= n {
				break
			}
		}
	}
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	return RefSample{Nodes: nodes, Freq: freq, Stats: st}, nil
}

// oracleRejection is the RejectionSampler loop as it stood before the
// sparse draw: step 2 materializes V^h_v and indexes it with one IntN.
func oracleRejection(p *Problem, idx *vicinity.Index, h, n int, rng *rand.Rand) (RefSample, error) {
	e := graph.NewBFS(p.G)
	labels := p.Labels()
	eventNodes := p.EventNodes()
	alias, err := sampling.NewAlias(idx.Weights(eventNodes, h))
	if err != nil {
		return RefSample{}, err
	}
	st := SamplerStats{Population: -1}
	seen := make(map[graph.NodeID]bool, n)
	nodes := make([]graph.NodeID, 0, n)
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		st.Draws++
		v := eventNodes[alias.Draw(rng)]
		vic := e.Collect([]graph.NodeID{v}, h)
		st.BFSCount++
		u := vic[rng.IntN(len(vic))]
		c := 0
		for _, w := range e.Collect([]graph.NodeID{u}, h) {
			if labels[w]&LabelUnion != 0 {
				c++
			}
		}
		st.BFSCount++
		if c < 1 || rng.Float64() >= 1/float64(c) {
			st.Rejections++
			continue
		}
		if !seen[u] {
			seen[u] = true
			nodes = append(nodes, u)
		}
	}
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	return RefSample{Nodes: nodes, Stats: st}, nil
}

// sameSample compares two samplers' outputs and the rng states they
// leave behind.
func sameSample(t *testing.T, what string, got, want RefSample, err, werr error, rng, orng *rand.Rand) {
	t.Helper()
	if (err != nil) != (werr != nil) {
		t.Fatalf("%s: error %v, oracle %v", what, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: sample differs from the oracle\n got %+v\nwant %+v", what, got, want)
	}
	if rng.Uint64() != orng.Uint64() {
		t.Fatalf("%s: rng state differs from the oracle's", what)
	}
}

// TestImportanceSamplerMatchesOracle: samples, frequencies and
// SamplerStats (one BFS per event-node draw) are bit-identical to
// Collect + SampleKInPlace for every depth, batch size and seed.
func TestImportanceSamplerMatchesOracle(t *testing.T) {
	p, idx := erProblem(t, 400, 1000, 15, 15, 92)
	e := graph.NewBFS(p.G)
	for _, h := range []int{1, 2, 3} {
		for _, batch := range []int{1, 3, 6} {
			s := &ImportanceSampler{Index: idx, BatchSize: batch}
			for seed := uint64(0); seed < 40; seed++ {
				n := []int{2, 30, 120, 1000}[seed%4]
				rng, orng := rand.New(rand.NewPCG(seed, 5)), rand.New(rand.NewPCG(seed, 5))
				got, err := s.SampleReferences(p, h, n, rng, e)
				want, werr := oracleImportance(p, idx, h, n, batch, orng)
				sameSample(t, fmt.Sprintf("h=%d batch=%d seed=%d n=%d", h, batch, seed, n), got, want, err, werr, rng, orng)
			}
		}
	}
}

// TestRejectionSamplerMatchesOracle: RejectSamp's step 2 through the
// sparse draw is bit-identical to the loop that materialized V^h_v.
func TestRejectionSamplerMatchesOracle(t *testing.T) {
	p, idx := erProblem(t, 400, 1000, 15, 15, 93)
	e := graph.NewBFS(p.G)
	s := &RejectionSampler{Index: idx}
	for _, h := range []int{1, 2, 3} {
		for seed := uint64(0); seed < 40; seed++ {
			n := []int{2, 30, 120}[seed%3]
			rng, orng := rand.New(rand.NewPCG(seed, 6)), rand.New(rand.NewPCG(seed, 6))
			got, err := s.SampleReferences(p, h, n, rng, e)
			want, werr := oracleRejection(p, idx, h, n, orng)
			sameSample(t, fmt.Sprintf("h=%d seed=%d n=%d", h, seed, n), got, want, err, werr, rng, orng)
		}
	}
}

// TestBallDrawRejectsInflatedIndex: an index whose |V^h_v| exceeds the
// graph's ball (one restored for another graph) makes both index-based
// samplers fail with a *BallSizeError instead of indexing out of range.
func TestBallDrawRejectsInflatedIndex(t *testing.T) {
	g := graph.Path(40)
	n := g.NumNodes()
	p := MustNewProblem(g, graph.NewNodeSet(n, []graph.NodeID{10}), graph.NewNodeSet(n, []graph.NodeID{20}))
	for _, h := range []int{1, 2} {
		sizes := make([][]int32, 2)
		for l := range sizes {
			sizes[l] = make([]int32, n)
			for v := range sizes[l] {
				sizes[l][v] = int32(min(2*(l+1)+1, n)) // a path's interior ball
			}
		}
		for l := h - 1; l < len(sizes); l++ {
			sizes[l][10] = int32(n) // inflated for one event node
		}
		idx, err := vicinity.FromSizes(g, sizes)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []Sampler{&RejectionSampler{Index: idx}, &ImportanceSampler{Index: idx}, &ImportanceSampler{Index: idx, BatchSize: 3}} {
			_, err := s.SampleReferences(p, h, 30, rand.New(rand.NewPCG(7, uint64(h))))
			var bse *BallSizeError
			if !errors.As(err, &bse) {
				t.Fatalf("h=%d %s: error %v, want a *BallSizeError", h, s.Name(), err)
			}
			if bse.Node != 10 || bse.H != h || bse.Indexed != n || bse.Found != 2*h+1 {
				t.Fatalf("h=%d %s: %+v", h, s.Name(), *bse)
			}
		}
	}
}
