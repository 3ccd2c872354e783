package core

import (
	"context"
	"fmt"
	"math/rand/v2"
	"slices"

	"tesc/internal/graph"
	"tesc/internal/sampling"
	"tesc/internal/vicinity"
)

// RefSample is the outcome of reference-node selection.
type RefSample struct {
	// Nodes are the distinct reference nodes drawn from V^h_{a∪b}.
	Nodes []graph.NodeID
	// Freq is nil for uniform samples. For importance sampling it holds
	// w_i, the number of times Nodes[i] was generated (Algorithm 2's W);
	// the test then uses the weighted estimator t̃ of Eq. 8.
	Freq []int
	// Stats records the work the sampler performed.
	Stats SamplerStats
}

// Weighted reports whether the sample carries importance frequencies.
func (s RefSample) Weighted() bool { return s.Freq != nil }

// SamplerStats counts the work done during reference selection; the
// complexity analysis of §4.4 is expressed in exactly these quantities.
type SamplerStats struct {
	BFSCount   int64 // h-hop BFS traversals performed by the sampler
	Draws      int64 // sampling iterations (importance sampling's n')
	Rejections int64 // RejectSamp coin-flip failures
	Examined   int64 // whole-graph nodes examined for eligibility
	OutOfSight int64 // examined nodes outside V^h_{a∪b} (the paper's n_f)
	Population int   // N = |V^h_{a∪b}| when enumerated (Batch BFS), else -1
}

// Sampler draws reference nodes for a TESC test. Samplers own no
// traversal state: the caller lends the BFS engine, so one sampler may
// serve concurrent calls that pass distinct engines.
type Sampler interface {
	// Name identifies the strategy in reports ("batch-bfs", ...).
	Name() string
	// SampleReferences draws up to n distinct reference nodes from
	// V^h_{a∪b}, traversing with bfs, which must be bound to p.G (Test
	// and the screening sweep pass the engine their density pass runs
	// on). The engine is optional so that four-argument calls keep
	// working; without one the sampler allocates a fresh engine
	// (BatchBFSSampler: from its Engines pool). Fewer than n nodes are
	// returned only when the reference population (or the sampler's
	// draw budget) is exhausted.
	SampleReferences(p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error)
}

// engine returns the engine a sampler traverses with: the caller's, or
// a fresh one bound to p.G.
func engine(p *Problem, bfs []*graph.BFS) *graph.BFS {
	if len(bfs) == 0 {
		return graph.NewBFS(p.G)
	}
	if bfs[0].Graph() != p.G {
		panic("core: BFS engine bound to a different graph")
	}
	return bfs[0]
}

// maxDrawFactor bounds the draw loops of the rejection and importance
// samplers: after maxDrawFactor·n + maxDrawSlack iterations without
// reaching n distinct nodes the sample is returned as-is. This only
// triggers when N is close to (or below) n, where the estimator is
// nearly exact anyway.
const (
	maxDrawFactor = 50
	maxDrawSlack  = 1000
)

// ctxSampler is a sampler whose draw loop can be abandoned: Test passes
// its Options.Ctx through sampleCtx, which checks it every ctxCheckEvery
// iterations and returns the cause wrapped in ErrCanceled. A check
// draws no random numbers, so a sample that completes is the one
// SampleReferences (which never cancels) returns.
type ctxSampler interface {
	sampleCtx(ctx context.Context, p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error)
}

// ctxCheckEvery is the draw-loop iterations between context checks.
const ctxCheckEvery = 64

// ---------------------------------------------------------------------
// Batch BFS (Algorithm 1)
// ---------------------------------------------------------------------

// BatchBFSSampler materializes the whole reference population V^h_{a∪b}
// with one multi-source BFS from Va∪b (Algorithm 1, worst case
// O(|V|+|E|)) and then draws n nodes uniformly without replacement.
type BatchBFSSampler struct {
	// Engines, when non-nil and bound to the problem's graph, supplies
	// the traversal engine of calls that pass none.
	Engines *graph.EnginePool
}

// Name implements Sampler.
func (s *BatchBFSSampler) Name() string { return "batch-bfs" }

// SampleReferences implements Sampler.
func (s *BatchBFSSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	var e *graph.BFS
	if len(bfs) > 0 {
		e = engine(p, bfs)
	} else {
		e = s.Engines.Acquire(p.G)
		defer s.Engines.Put(e)
	}
	// The engine's flat visit buffer IS the enumerated population; the
	// draw shuffles its prefix in place (engine scratch is fair game
	// between traversals), so materializing V^h_{a∪b} costs no copy.
	pop := e.Collect(p.EventNodes(), h)
	nodes, err := DrawFromPopulation(pop, 0, n, rng)
	if err != nil {
		return RefSample{}, err
	}
	return RefSample{
		Nodes: slices.Clone(nodes),
		Stats: SamplerStats{BFSCount: 1, Population: len(pop)},
	}, nil
}

// DrawFromPopulation is Algorithm 1's draw: up to n nodes uniformly
// without replacement from the enumerated reference population pop, in
// O(n) random numbers rather than O(|pop|). It permutes pop in place and
// returns its prefix. BatchBFSSampler draws from its engine's visit
// buffer in one step (from = 0); the screening planner draws from a
// copy of a cached population in BFS.Collect order, extending the
// prefix from the length it already holds to each checkpoint's, so a
// pair pruned at m pays m random numbers. The same slice contents and
// the same rng give the same sample whatever the steps.
func DrawFromPopulation(pop []graph.NodeID, from, n int, rng *rand.Rand) ([]graph.NodeID, error) {
	if len(pop) < 2 {
		return nil, ErrTooFewReferences
	}
	return sampling.SampleKInPlace(pop, from, n, rng), nil
}

// ---------------------------------------------------------------------
// Rejection sampling (Procedure RejectSamp)
// ---------------------------------------------------------------------

// RejectionSampler implements Procedure RejectSamp: draw an event node v
// with probability |V^h_v|/Nsum, draw u uniformly from V^h_v, then accept
// u with probability 1/|V^h_u ∩ Va∪b|. Proposition 1 shows each node of
// V^h_{a∪b} is produced with probability 1/Nsum, so accepted nodes form a
// uniform sample. Each draw costs two h-hop BFS; the expected number of
// draws per accepted node is Nsum/N, which grows with vicinity overlap —
// the inefficiency that motivates the importance sampler.
type RejectionSampler struct {
	// Index must cover level h for the problem's graph.
	Index *vicinity.Index
}

// Name implements Sampler.
func (s *RejectionSampler) Name() string { return "rejection" }

// SampleReferences implements Sampler.
func (s *RejectionSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	return s.sampleCtx(context.TODO(), p, h, n, rng, bfs...)
}

func (s *RejectionSampler) sampleCtx(ctx context.Context, p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	if err := checkIndex(s.Name(), s.Index, p, h); err != nil {
		return RefSample{}, err
	}
	e := engine(p, bfs)
	labels := p.Labels()
	eventNodes := p.EventNodes()
	sizes := s.Index.Weights(eventNodes, h)
	alias, err := sampling.NewAlias(sizes)
	if err != nil {
		return RefSample{}, fmt.Errorf("tesc: rejection sampler: %w", err)
	}
	ball := ballDrawer{e: e, h: h}

	var st SamplerStats
	st.Population = -1
	seen := make(map[graph.NodeID]bool, n)
	nodes := make([]graph.NodeID, 0, n)
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		if st.Draws%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return RefSample{}, err
			}
		}
		st.Draws++
		// Step 1: v ∝ |V^h_v|.
		ev := alias.Draw(rng)
		// Step 2: u uniform from V^h_v.
		drawn, err := ball.draw(eventNodes[ev], int(sizes[ev]), 1, rng)
		if err != nil {
			return RefSample{}, err
		}
		st.BFSCount++
		u := drawn[0]
		// Step 3: c = |V^h_u ∩ Va∪b|.
		c := 0
		for _, w := range e.Collect([]graph.NodeID{u}, h) {
			if labels[w]&LabelUnion != 0 {
				c++
			}
		}
		st.BFSCount++
		// Step 4: accept with probability 1/c.
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

// checkIndex reports why idx cannot serve the named index-based sampler
// at level h on p's graph, or nil when it can.
func checkIndex(sampler string, idx *vicinity.Index, p *Problem, h int) error {
	switch {
	case idx == nil:
		return fmt.Errorf("tesc: %s sampler requires a vicinity index", sampler)
	case idx.Graph() != p.G:
		return fmt.Errorf("tesc: %s sampler: vicinity index bound to a different graph", sampler)
	case idx.MaxLevel() < h:
		return fmt.Errorf("tesc: %s sampler: vicinity index covers levels 1..%d, need %d", sampler, idx.MaxLevel(), h)
	}
	return nil
}

// ---------------------------------------------------------------------
// Importance sampling (Algorithm 2, §5.2.2 batched variant)
// ---------------------------------------------------------------------

// ImportanceSampler implements Algorithm 2: draw event node v with
// probability |V^h_v|/Nsum, then draw reference nodes uniformly from
// V^h_v *without rejection*, recording frequencies. The resulting sample
// follows P = {p(r) = |V^h_r ∩ Va∪b|/Nsum}, and the test compensates with
// the weighted estimator t̃ (Eq. 8), a consistent estimator of τ
// (Theorem 1).
//
// BatchSize > 1 enables the §5.2.2 refinement: several reference nodes
// are drawn per event-node BFS, trading a little estimator accuracy
// (samples become locally dependent) for proportionally fewer traversals.
// The paper settles on 3 for h=2 and 6 for h=3 (Figure 7).
type ImportanceSampler struct {
	// Index must cover level h for the problem's graph.
	Index *vicinity.Index
	// BatchSize is the number of reference nodes drawn per event-node
	// BFS; 0 or 1 means the plain Algorithm 2.
	BatchSize int
}

// Name implements Sampler.
func (s *ImportanceSampler) Name() string {
	if s.BatchSize > 1 {
		return fmt.Sprintf("importance-batch%d", s.BatchSize)
	}
	return "importance"
}

// SampleReferences implements Sampler.
func (s *ImportanceSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	return s.sampleCtx(context.TODO(), p, h, n, rng, bfs...)
}

func (s *ImportanceSampler) sampleCtx(ctx context.Context, p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	if err := checkIndex(s.Name(), s.Index, p, h); err != nil {
		return RefSample{}, err
	}
	e := engine(p, bfs)
	batch := s.BatchSize
	if batch < 1 {
		batch = 1
	}
	eventNodes := p.EventNodes()
	sizes := s.Index.Weights(eventNodes, h)
	alias, err := sampling.NewAlias(sizes)
	if err != nil {
		return RefSample{}, fmt.Errorf("tesc: importance sampler: %w", err)
	}
	ball := ballDrawer{e: e, h: h}

	var st SamplerStats
	st.Population = -1
	pos := make(map[graph.NodeID]int, n) // node → index in nodes
	nodes := make([]graph.NodeID, 0, n)
	freq := make([]int, 0, n)
	maxDraws := int64(maxDrawFactor)*int64(n) + maxDrawSlack
	for len(nodes) < n && st.Draws < maxDraws {
		if st.BFSCount%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return RefSample{}, err
			}
		}
		// Line 4: v ∝ |V^h_v|.
		ev := alias.Draw(rng)
		// Line 5: draw from V^h_v, one h-hop BFS in §4.4's accounting.
		drawn, err := ball.draw(eventNodes[ev], int(sizes[ev]), batch, rng)
		if err != nil {
			return RefSample{}, err
		}
		st.BFSCount++
		for _, r := range drawn {
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

// ---------------------------------------------------------------------
// Drawing from one event node's vicinity (RejectSamp step 2, Algorithm 2
// line 5)
// ---------------------------------------------------------------------

// ballDrawer draws reference nodes from an event node's vicinity V^h_v
// exactly as sampling.SampleKInPlace(e.Collect({v}, h), 0, k, rng)
// would: the same rng.IntN calls pick the same positions of the ball in
// Collect order. It never materializes the ball. The shuffle is sparse,
// tracking only the slots it touched, and |V^h_v| comes from the
// vicinity index. Only the drawn positions are resolved: position 0 is v,
// 1..deg(v) is v's adjacency row, and anything later comes from a BFS
// prefix that stops at the last drawn position. A draw therefore costs k
// random numbers and at most one partial traversal, not the whole ball.
// Its scratch is reused across draws; the returned slice is valid until
// the next one.
type ballDrawer struct {
	e     *graph.BFS
	h     int
	slots []ballSlot // the sparse shuffle's touched slots
	pos   []int      // drawn positions, in draw order
	out   []graph.NodeID
}

// ballSlot records that shuffle slot at holds ball position holds.
type ballSlot struct{ at, holds int }

// draw returns min(k, size) distinct nodes of V^h_v, size = |V^h_v| as
// the index has it. A size the graph's ball falls short of yields a
// *BallSizeError.
func (d *ballDrawer) draw(v graph.NodeID, size, k int, rng *rand.Rand) ([]graph.NodeID, error) {
	if size < 1 {
		return nil, d.sizeError(v, size)
	}
	k = min(k, size)
	d.slots, d.pos, d.out = d.slots[:0], d.pos[:0], d.out[:0]
	last := 0
	for i := 0; i < k; i++ {
		// Swap slot i with a uniform slot j >= i, keeping only slot j:
		// slot i is never read again.
		sj, si := d.slot(i+rng.IntN(size-i)), d.slot(i)
		p := d.slots[sj].holds
		d.slots[sj].holds = d.slots[si].holds
		d.pos = append(d.pos, p)
		last = max(last, p)
	}
	if nbrs := d.e.Graph().Neighbors(v); last <= len(nbrs) {
		// With h >= 1 (an index has no level 0), Collect lists v, then
		// v's whole adjacency row in order.
		for _, p := range d.pos {
			if p == 0 {
				d.out = append(d.out, v)
			} else {
				d.out = append(d.out, nbrs[p-1])
			}
		}
		return d.out, nil
	}
	ball := d.e.CollectPrefix(v, d.h, last+1)
	if len(ball) <= last {
		return nil, d.sizeError(v, size)
	}
	for _, p := range d.pos {
		d.out = append(d.out, ball[p])
	}
	return d.out, nil
}

// slot returns the index in d.slots of shuffle slot i, adding the slot,
// holding ball position i, on first touch.
func (d *ballDrawer) slot(i int) int {
	for k, s := range d.slots {
		if s.at == i {
			return k
		}
	}
	d.slots = append(d.slots, ballSlot{i, i})
	return len(d.slots) - 1
}

func (d *ballDrawer) sizeError(v graph.NodeID, size int) error {
	return &BallSizeError{Node: v, H: d.h, Indexed: size, Found: len(d.e.Collect([]graph.NodeID{v}, d.h))}
}

// BallSizeError reports a vicinity index whose |V^h_v| disagrees with
// the graph's ball around v, so a draw picked a position the ball does
// not have. It means the index was built for another graph.
type BallSizeError struct {
	Node    graph.NodeID
	H       int
	Indexed int // |V^h_v| according to the index
	Found   int // |V^h_v| according to a traversal of the graph
}

func (e *BallSizeError) Error() string {
	return fmt.Sprintf("tesc: vicinity index has |V^%d_%d| = %d, but the graph's ball holds %d nodes", e.H, e.Node, e.Indexed, e.Found)
}

// ---------------------------------------------------------------------
// Whole graph sampling (Algorithm 3)
// ---------------------------------------------------------------------

// WholeGraphSampler implements Algorithm 3: draw nodes uniformly from the
// whole graph without replacement and keep those whose h-vicinity
// contains an event node. Kept nodes are a uniform sample of V^h_{a∪b};
// the expected number of wasted examinations is n·|V|/N − n (§4.4), so
// the strategy only pays off when V^h_{a∪b} covers much of the graph
// (large |Va∪b| and/or large h).
type WholeGraphSampler struct{}

// Name implements Sampler.
func (s *WholeGraphSampler) Name() string { return "whole-graph" }

// SampleReferences implements Sampler.
func (s *WholeGraphSampler) SampleReferences(p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	return s.sampleCtx(context.TODO(), p, h, n, rng, bfs...)
}

func (s *WholeGraphSampler) sampleCtx(ctx context.Context, p *Problem, h, n int, rng *rand.Rand, bfs ...*graph.BFS) (RefSample, error) {
	e := engine(p, bfs)
	labels := p.Labels()
	var st SamplerStats
	st.Population = -1
	nodes := make([]graph.NodeID, 0, n)
	picker := sampling.NewUniformNoReplace(p.G.NumNodes(), rng)
	for len(nodes) < n {
		if st.Examined%ctxCheckEvery == 0 {
			if err := ctxErr(ctx); err != nil {
				return RefSample{}, err
			}
		}
		v, ok := picker.Next()
		if !ok {
			break // population exhausted
		}
		st.Examined++
		// Eligible: some event node lies in V^h_v.
		eligible := false
		for _, w := range e.Collect([]graph.NodeID{graph.NodeID(v)}, h) {
			if labels[w]&LabelUnion != 0 {
				eligible = true
				break
			}
		}
		st.BFSCount++
		if eligible {
			nodes = append(nodes, graph.NodeID(v))
		} else {
			st.OutOfSight++
		}
	}
	if len(nodes) < 2 {
		return RefSample{}, ErrTooFewReferences
	}
	return RefSample{Nodes: nodes, Stats: st}, nil
}
