package screen

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"tesc/internal/core"
	"tesc/internal/events"
	"tesc/internal/graph"
)

// MemoBudgetBytes caps the dense density memo's footprint. The memo
// stores one K-vector of int32 counts plus a size and a state word per
// graph node; past the budget (huge graph × large vocabulary) the sweep
// falls back to per-pair density evaluation rather than risk an
// allocation in the gigabytes. tescd bounds the memos it retains across
// all graphs by the same total.
const MemoBudgetBytes = 256 << 20

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
// blocking anywhere. The memo keeps no counters: hits and traversals
// are tallied by the worker that evaluated, so sweeps sharing one memo
// each see only their own.
type densityMemo struct {
	k      int
	states []atomic.Uint32 // 0 empty, 1 claimed, 2 published
	sizes  []int32         // |V^h_r| per node
	counts []int32         // flat [node*k + event] occurrence counts
	// publishes counts publications over the memo's lifetime; a rank
	// table built at a smaller count misses the nodes published since.
	publishes atomic.Int64
}

// newDensityMemo returns a memo for n nodes × k events, or nil when the
// dense arrays would exceed MemoBudgetBytes.
func newDensityMemo(n, k int) *densityMemo {
	if n <= 0 || k <= 0 {
		return nil
	}
	if denseBytes(n, k) > MemoBudgetBytes {
		return nil
	}
	return &densityMemo{
		k:      k,
		states: make([]atomic.Uint32, n),
		sizes:  make([]int32, n),
		counts: make([]int32, int64(n)*int64(k)),
	}
}

// denseBytes is the footprint of a memo's dense arrays for n nodes × k
// events: a state word and a size per node plus the count vectors.
func denseBytes(n, k int) int64 { return int64(n)*8 + int64(n)*int64(k)*4 }

// eval returns the K-vector of occurrence counts and |V^h_r| for
// reference node r, traversing at most once per distinct node across
// the memo's lifetime; hit reports that no traversal ran. scratch (len
// K) is used when a concurrent claimer owns the node mid-flight; the
// returned slice aliases either the memo or scratch and is valid until
// the caller's next eval.
func (m *densityMemo) eval(r graph.NodeID, multi *core.MultiEvaluator, scratch []int32) (counts []int32, size int32, hit bool) {
	st := &m.states[r]
	lo := int64(r) * int64(m.k)
	for {
		switch st.Load() {
		case 2:
			return m.counts[lo : lo+int64(m.k)], m.sizes[r], true
		case 0:
			if !st.CompareAndSwap(0, 1) {
				continue // raced; reinspect the new state
			}
			region := m.counts[lo : lo+int64(m.k)]
			m.sizes[r] = int32(multi.Eval(r, region))
			st.Store(2)
			m.publishes.Add(1)
			return region, m.sizes[r], false
		default: // claimed by another worker: compute locally, don't wait
			sz := multi.Eval(r, scratch)
			return scratch, int32(sz), false
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
// than approximate. The per-pair population cache beside the densities
// needs no invalidation: it is keyed by what it was built from (the
// graph, the store and h).
//
// Concurrent sweeps may share one memo: density entries are claimed
// and published per node without locks, the membership and population
// caches sit behind a mutex, and each sweep counts its own hits and
// traversals. Invalidate and Reset must not overlap any sweep's
// density evaluation: call them between sweeps, or from the
// Progress callback of a single-worker sweep that has the memo to
// itself (a monitor does both). Sweeps that run together must see the
// same graph and store (tescd keys its shared memos by snapshot
// epoch): a sweep on another version needs the invalidation above
// first, which cannot happen while the others run.
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
	memBytes int64 // mem's footprint

	// Population cache: each screened pair's reference population
	// V^h_{a∪b} in BFS.Collect order. It depends only on the graph, the
	// store and h, so it is keyed by all three: every sweep on the same
	// snapshot draws its samples from it instead of re-running the
	// pair's multi-source BFS, and a sweep on another graph (edge
	// delta), store (event mutation) or h starts it over.
	popKey   popKey
	pops     map[[2]string][]graph.NodeID
	popBytes int64 // the cached populations' footprint

	// Rank table (ranks.go): the dense ranks of the published densities
	// of the events one-pass sweeps have screened, so every sweep's
	// Kendall tests on those events — exhaustive or pruning — sort small
	// rank keys instead of floats. settled (under memMu) is the (graph,
	// store, h) of the last sweep that finished, zero after a drop: only
	// a one-pass sweep on a settled memo builds. rankMu serializes
	// builds; sweeps read the table lock-free, once per pair.
	settled   popKey
	rankMu    sync.Mutex
	ranks     atomic.Pointer[rankTable]
	rankPairs atomic.Int64 // pairs tested on rank keys to the end; tests and benchmarks read it
}

// popKey is what a reference population depends on besides the pair.
// Graphs and stores are immutable versions, so pointer identity is
// version identity (and the key keeps its pointers alive).
type popKey struct {
	g     *graph.Graph
	store *events.Store
	h     int
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
			numNodes, len(sorted), MemoBudgetBytes>>20)
	}
	return &SharedMemo{names: sorted, memo: m}, nil
}

// Names returns the sorted vocabulary the memo covers.
func (m *SharedMemo) Names() []string { return m.names }

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
	if dropped > 0 {
		m.unsettle()
	}
	return dropped
}

// unsettle drops the rank table: a dropped entry may come back with
// another density, and until a sweep finishes the memo is not settled.
func (m *SharedMemo) unsettle() {
	m.memMu.Lock()
	m.settled = popKey{}
	m.memMu.Unlock()
	m.ranks.Store(nil)
}

// settle records that a sweep on (g, store, h) finished.
func (m *SharedMemo) settle(key popKey) {
	m.memMu.Lock()
	m.settled = key
	m.memMu.Unlock()
}

// Bytes returns the memo's retained footprint: the dense count arrays
// plus the membership and population caches and the rank table
// filled so far. The caches grow as sweeps bind the memo and screen new
// pairs.
func (m *SharedMemo) Bytes() int64 {
	var ranks int64
	if t := m.ranks.Load(); t != nil {
		ranks = t.bytes
	}
	m.memMu.Lock()
	defer m.memMu.Unlock()
	return denseBytes(len(m.memo.states), m.memo.k) + m.memBytes + m.popBytes + ranks
}

// Reset clears every cached density entry, and the rank table with
// them.
func (m *SharedMemo) Reset() {
	m.unsettle()
	for i := range m.memo.states {
		m.memo.states[i].Store(0)
	}
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
	occurrences := 0
	for k, name := range m.names {
		sets[k] = store.Set(name)
		occurrences += sets[k].Len()
	}
	mem, err := core.NewEventMembership(numNodes, sets)
	if err != nil {
		return nil, err
	}
	m.memStore, m.mem = store, mem
	m.memBytes = int64(numNodes+1+occurrences) * 4 // offsets + event lists
	return mem, nil
}

// population returns pair's cached reference population at h on (g,
// store), or false. The slice is shared: callers copy before drawing.
func (m *SharedMemo) population(g *graph.Graph, store *events.Store, h int, pair [2]string) ([]graph.NodeID, bool) {
	m.memMu.Lock()
	defer m.memMu.Unlock()
	if m.popKey != (popKey{g, store, h}) {
		return nil, false
	}
	pop, ok := m.pops[pair]
	return pop, ok
}

// keepPopulation caches a copy of pair's reference population, just
// collected at h on (g, store). A key other than the cached one
// replaces the whole cache: the older populations belong to a
// superseded graph or store, or to another h.
func (m *SharedMemo) keepPopulation(g *graph.Graph, store *events.Store, h int, pair [2]string, pop []graph.NodeID) {
	key := popKey{g, store, h}
	kept := slices.Clone(pop)
	m.memMu.Lock()
	defer m.memMu.Unlock()
	if m.popKey != key {
		m.popKey, m.pops, m.popBytes = key, nil, 0
	}
	if _, ok := m.pops[pair]; ok {
		return // a concurrent sweep collected it first
	}
	if m.pops == nil {
		m.pops = make(map[[2]string][]graph.NodeID)
	}
	m.pops[pair] = kept
	m.popBytes += int64(len(kept)) * 4
}

// memoSource serves one event pair's (a, b) density pass from the
// memo: densities are the memoized count vectors divided by the
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
	// so nothing outlives the pair that borrowed them). kx/ky are the
	// rank-key scratch alike.
	sa, sb []float64
	kx, ky []uint64
}

// retarget points the source at the next pair's event indices.
func (s *memoSource) retarget(a, b int) { s.a, s.b = a, b }

// EvalAll returns the pair's density vectors over rs and how many of
// them the memo served without a traversal. It builds no per-node
// Density records: the sweep's uniform samples need sa/sb alone, and a
// standing-query re-screen should not pay O(n) record construction for
// data nothing reads.
func (s *memoSource) EvalAll(rs []graph.NodeID) (sa, sb []float64, hits int64) {
	if cap(s.sa) < len(rs) {
		s.sa = make([]float64, len(rs))
		s.sb = make([]float64, len(rs))
	}
	sa, sb = s.sa[:len(rs)], s.sb[:len(rs)]
	for i, r := range rs {
		counts, size, hit := s.memo.eval(r, s.multi, s.scratch)
		if hit {
			hits++
		}
		// Unit-intensity sums are exact integers in float64, so these
		// divisions are bit-identical to Density.SA()/SB().
		sa[i] = float64(counts[s.a]) / float64(size)
		sb[i] = float64(counts[s.b]) / float64(size)
	}
	return sa, sb, hits
}
