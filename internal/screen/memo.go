package screen

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
)

// memoBudgetBytes caps the dense density memo's footprint. The memo
// stores one K-vector of int32 counts plus a size and a state word per
// graph node; past the budget (huge graph × large vocabulary) the sweep
// falls back to per-pair density evaluation rather than risk an
// allocation in the gigabytes.
const memoBudgetBytes = 256 << 20

// densityMemo deduplicates density-phase BFS traversals across the
// event pairs of one screening sweep. §5.4's workload tests K(K−1)/2
// pairs and samples reference nodes per pair from overlapping
// populations, so the same reference node is traversed once per pair it
// lands in — an O(K²·n) traversal bill. The memo pins each distinct
// reference node to ONE h-hop BFS (a MultiEvaluator pass producing the
// occurrence counts of all K events plus |V^h_r|); every later pair
// that samples the node extracts its sa/sb with two array loads.
//
// Concurrency is a lock-free per-node claim: states[r] moves 0 → 1 by
// CAS (the winner runs the BFS and publishes with a release store of
// 2), and readers only touch counts/sizes after observing state 2. A
// worker that loses the claim race while the winner is mid-flight
// computes locally into its own scratch instead of spinning — duplicate
// work on a window so narrow it is unmeasurable, in exchange for no
// blocking anywhere.
type densityMemo struct {
	k      int
	states []atomic.Uint32 // 0 empty, 1 claimed, 2 published
	sizes  []int32         // |V^h_r| per node
	counts []int32         // flat [node*k + event] occurrence counts

	// memoHits counts evaluations served from the memo; traversals
	// performed are accounted per pair by the workers (each source's
	// Traversals() diff), not here.
	memoHits atomic.Int64
}

// newDensityMemo returns a memo for n nodes × k events, or nil when the
// dense arrays would exceed memoBudgetBytes.
func newDensityMemo(n, k int) *densityMemo {
	if n <= 0 || k <= 0 {
		return nil
	}
	bytes := int64(n)*8 + int64(n)*int64(k)*4
	if bytes > memoBudgetBytes {
		return nil
	}
	return &densityMemo{
		k:      k,
		states: make([]atomic.Uint32, n),
		sizes:  make([]int32, n),
		counts: make([]int32, int64(n)*int64(k)),
	}
}

// eval returns the K-vector of occurrence counts and |V^h_r| for
// reference node r, traversing at most once per distinct node across
// the whole sweep. scratch (len K) is used when a concurrent claimer
// owns the node mid-flight; the returned slice aliases either the memo
// or scratch and is valid until the caller's next eval.
func (m *densityMemo) eval(r graph.NodeID, multi *core.MultiEvaluator, scratch []int32) (counts []int32, size int32) {
	st := &m.states[r]
	lo := int64(r) * int64(m.k)
	for {
		switch st.Load() {
		case 2:
			m.memoHits.Add(1)
			return m.counts[lo : lo+int64(m.k)], m.sizes[r]
		case 0:
			if !st.CompareAndSwap(0, 1) {
				continue // raced; reinspect the new state
			}
			region := m.counts[lo : lo+int64(m.k)]
			m.sizes[r] = int32(multi.Eval(r, region))
			st.Store(2)
			return region, m.sizes[r]
		default: // claimed by another worker: compute locally, don't wait
			sz := multi.Eval(r, scratch)
			return scratch, int32(sz)
		}
	}
}

// SharedMemo is a density memo that outlives a single sweep: the caller
// owns it, hands it to successive sweeps via Config.Memo, and entries
// published by one run are served to the next. It is the substrate of
// standing queries — a monitor re-screening the same event pair after
// a graph delta reuses every reference-node density the delta cannot
// have changed, and recomputes only the invalidated rest.
//
// The correctness contract is the caller's: after the graph or the
// occurrence sets of the vocabulary change, Invalidate must be called
// with every node whose h-vicinity or vicinity event content may have
// changed (vicinity.DirtySet yields exactly that set for edge flips;
// the reverse h-ball around changed occurrence nodes covers event
// mutations) BEFORE the next sweep. Entries that survive invalidation
// are served as-is, which is what makes the reuse bit-identical rather
// than approximate. Not safe for use by concurrent sweeps; serialize
// sweeps and invalidations.
type SharedMemo struct {
	names []string // sorted vocabulary; count vectors are indexed by it
	memo  *densityMemo

	// Membership cache: the node → event adjacency depends only on the
	// store's occurrence sets, not on the graph, so it is rebuilt only
	// when a run binds a different store snapshot (event mutation) —
	// edge deltas keep the store and skip the O(|V|) rebuild, which
	// would otherwise dominate an incremental re-screen.
	memMu    sync.Mutex
	memStore *events.Store
	mem      *core.EventMembership

	// Union cache (same store-keyed lifetime): Va∪b per screened pair,
	// another O(|V|) build edge deltas cannot have changed.
	unions map[[2]string]*graph.NodeSet
}

// NewSharedMemo returns a persistent memo over a fixed event
// vocabulary and node universe. The vocabulary is sorted and must be
// non-empty and duplicate-free; the dense arrays must fit the same
// budget the per-run memo enforces.
func NewSharedMemo(numNodes int, names []string) (*SharedMemo, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("screen: shared memo needs a non-empty event vocabulary")
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	for i, name := range sorted {
		if name == "" {
			return nil, fmt.Errorf("screen: shared memo vocabulary contains an empty event name")
		}
		if i > 0 && sorted[i-1] == name {
			return nil, fmt.Errorf("screen: shared memo vocabulary contains %q twice", name)
		}
	}
	m := newDensityMemo(numNodes, len(sorted))
	if m == nil {
		return nil, fmt.Errorf("screen: shared memo for %d nodes x %d events exceeds the %d MB budget",
			numNodes, len(sorted), memoBudgetBytes>>20)
	}
	return &SharedMemo{names: sorted, memo: m}, nil
}

// Names returns the sorted vocabulary the memo covers.
func (m *SharedMemo) Names() []string { return m.names }

// NumNodes returns the node universe the memo was built for.
func (m *SharedMemo) NumNodes() int { return len(m.memo.states) }

// Invalidate clears the cached entries of the given nodes, returning
// how many published entries were actually dropped (nodes never
// evaluated cost nothing). Out-of-range nodes are ignored.
func (m *SharedMemo) Invalidate(nodes []graph.NodeID) int {
	dropped := 0
	for _, v := range nodes {
		if v < 0 || int(v) >= len(m.memo.states) {
			continue
		}
		if m.memo.states[v].Swap(0) == 2 {
			dropped++
		}
	}
	return dropped
}

// Reset clears every cached entry.
func (m *SharedMemo) Reset() {
	for i := range m.memo.states {
		m.memo.states[i].Store(0)
	}
}

// Published returns the number of cached (published) entries — the
// reference nodes whose next evaluation is an array load instead of a
// BFS. O(NumNodes); diagnostics and tests only.
func (m *SharedMemo) Published() int {
	n := 0
	for i := range m.memo.states {
		if m.memo.states[i].Load() == 2 {
			n++
		}
	}
	return n
}

// bind validates the memo against a sweep (graph universe, pair
// vocabulary), fills eventIdx with the vocabulary indices of the
// sweep's event names, and returns the membership adjacency built from
// the store's CURRENT occurrence sets over the full vocabulary.
func (m *SharedMemo) bind(numNodes int, store *events.Store, pairs [][2]string, eventIdx map[string]int) (*core.EventMembership, error) {
	if numNodes != len(m.memo.states) {
		return nil, fmt.Errorf("screen: shared memo built for %d nodes, graph has %d", len(m.memo.states), numNodes)
	}
	idx := make(map[string]int, len(m.names))
	for k, name := range m.names {
		idx[name] = k
	}
	for _, p := range pairs {
		for _, name := range []string{p[0], p[1]} {
			k, ok := idx[name]
			if !ok {
				return nil, fmt.Errorf("screen: event %q not in the shared memo vocabulary", name)
			}
			eventIdx[name] = k
		}
	}
	m.memMu.Lock()
	defer m.memMu.Unlock()
	if m.mem != nil && m.memStore == store {
		return m.mem, nil
	}
	sets := make([]*graph.NodeSet, len(m.names))
	for k, name := range m.names {
		sets[k] = store.Set(name)
	}
	mem, err := core.NewEventMembership(numNodes, sets)
	if err != nil {
		return nil, err
	}
	m.memStore, m.mem = store, mem
	m.unions = nil // occurrence sets changed; cached unions are stale
	return mem, nil
}

// problemFor builds the pair's test problem, serving Va∪b from the
// store-keyed union cache (the union is independent of the graph, so
// edge deltas reuse it as-is).
func (m *SharedMemo) problemFor(g *graph.Graph, store *events.Store, pair [2]string) (*core.Problem, error) {
	m.memMu.Lock()
	if m.memStore != store {
		m.unions = nil
	}
	union := m.unions[pair]
	m.memMu.Unlock()
	va, vb := store.Set(pair[0]), store.Set(pair[1])
	if union == nil {
		p, err := core.NewProblem(g, va, vb)
		if err != nil {
			return nil, err
		}
		m.memMu.Lock()
		if m.memStore == store {
			if m.unions == nil {
				m.unions = make(map[[2]string]*graph.NodeSet)
			}
			m.unions[pair] = p.Union
		}
		m.memMu.Unlock()
		return p, nil
	}
	return core.NewProblemWithUnion(g, va, vb, union)
}

// memoSource adapts the memo to core.DensitySource for one event pair
// (a, b): densities are the memoized count vectors divided by the
// memoized vicinity sizes — bit-identical to what a fresh
// DensityEvaluator would compute, since unit-intensity sums are exact
// integers in float64. One memoSource per worker; retarget per pair.
type memoSource struct {
	memo    *densityMemo
	multi   *core.MultiEvaluator
	scratch []int32
	a, b    int
	// shared is set when the memo is a caller-owned SharedMemo, whose
	// store-keyed problem/membership caches the source then borrows.
	shared *SharedMemo
	// sa/sb are this worker's density-vector scratch, reused across
	// the pairs it screens (each source belongs to exactly one worker,
	// so no synchronization; PairResult carries no per-node vectors,
	// so nothing outlives the pair that borrowed them).
	sa, sb []float64
}

// retarget points the source at the next pair's event indices.
func (s *memoSource) retarget(a, b int) { s.a, s.b = a, b }

// Traversals implements core.DensitySource.
func (s *memoSource) Traversals() int64 { return s.multi.BFSCount }

// EvalAll implements core.DensitySource. The per-node Density records
// are skipped (nil ds, per the DensitySource contract): the memo only
// serves uniform samples, whose statistics consume sa/sb alone, and a
// standing-query re-screen should not pay O(n) record construction for
// data nothing reads.
func (s *memoSource) EvalAll(rs []graph.NodeID) (sa, sb []float64, ds []core.Density) {
	if cap(s.sa) < len(rs) {
		s.sa = make([]float64, len(rs))
		s.sb = make([]float64, len(rs))
	}
	sa, sb = s.sa[:len(rs)], s.sb[:len(rs)]
	for i, r := range rs {
		counts, size := s.memo.eval(r, s.multi, s.scratch)
		// Unit-intensity sums are exact integers in float64, so these
		// divisions are bit-identical to Density.SA()/SB().
		sa[i] = float64(counts[s.a]) / float64(size)
		sb[i] = float64(counts[s.b]) / float64(size)
	}
	return sa, sb, nil
}
