// Package monitor turns TESC from a one-shot assessment into a
// continuous one: clients register standing queries — an event pair,
// a vicinity level, a re-evaluation policy — against an evolving
// graph, and the subsystem re-screens each query incrementally as
// edge and event mutations stream in.
//
// The paper's motivating datasets (co-purchase networks, DBLP
// co-authorship, intrusion alerts) are all evolving graphs, where the
// operational question is not "are these events correlated" but "when
// does this pair *become* (or stop being) correlated". Recomputing
// the full test per mutation wastes the same work the §4.2 vicinity
// index avoids wasting: a delta only perturbs densities inside a
// bounded ball. The scheduler therefore intersects each delta's
// flipped-vicinity node set (vicinity.DirtySet — the exact locality
// bound the index repair already computes) with each standing query's
// density cache, invalidates only that intersection, and re-screens
// with every untouched reference-node density served from the cache
// (screen.SharedMemo). The re-screen is bit-identical to a
// from-scratch screen.Run at the same epoch — the differential tests
// pin score, p-value and per-node densities — because cached entries
// outside the dirty ball provably cannot have changed.
//
// Bursts of mutations are debounced per monitor: a batch of B deltas
// inside the coalescing window triggers one re-screen, not B, and the
// history entry records how many batches it folded.
package monitor

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/screen"
	"tesc/internal/stats"
)

// Mode selects when a monitor re-screens.
type Mode int

const (
	// Auto re-screens automatically: a mutation arms the debounce
	// timer, and the re-screen fires once the window closes, folding
	// every delta that landed meanwhile into one run.
	Auto Mode = iota
	// Manual accumulates invalidations but re-screens only on an
	// explicit Refresh (the REST layer's refresh endpoint) — the mode
	// for clients that want to pay re-evaluation on their own clock.
	Manual
)

// String names the mode ("auto" / "manual").
func (m Mode) String() string {
	switch m {
	case Auto:
		return "auto"
	case Manual:
		return "manual"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// ParseMode inverts Mode.String; the empty string selects Auto.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "", "auto":
		return Auto, nil
	case "manual":
		return Manual, nil
	default:
		return 0, fmt.Errorf("monitor: unknown mode %q (auto | manual)", s)
	}
}

// Defaults applied by Definition.Normalize; the sample size and α
// defaults are the screen's (screen.Config.Normalize).
const (
	DefaultDebounce = 250 * time.Millisecond
	DefaultHistory  = 64
	// MaxHistory bounds the per-monitor history ring so a
	// client-supplied capacity cannot pin unbounded memory.
	MaxHistory = 4096
)

// Definition is one standing TESC query. The zero values of the
// optional fields select the paper's defaults (n = 900, α = 0.05).
type Definition struct {
	// ID is the registry key, unique per graph; Manager.Create assigns
	// one when empty.
	ID string
	// A and B name the monitored event pair.
	A, B string
	// H is the vicinity level (required, ≥ 1).
	H int
	// SampleSize is the reference sample size n (default 900).
	SampleSize int
	// Alpha is the significance level (default 0.05).
	Alpha float64
	// Alternative selects the tested direction (default two-sided).
	Alternative stats.Alternative
	// Seed drives the reference sampling deterministically; the same
	// seed at the same epoch always reproduces the same result, which
	// is what makes incremental-vs-from-scratch comparable at all.
	Seed uint64
	// Mode selects automatic (debounced) or manual re-evaluation.
	Mode Mode
	// Debounce is the coalescing window of Auto mode: the re-screen
	// runs this long after the first unprocessed delta, folding every
	// later delta in the window into the same run (default 250ms).
	Debounce time.Duration
	// HistoryCap bounds the history ring (default 64, max 4096).
	HistoryCap int
	// TopK, when > 0, turns the monitor into a standing watchlist:
	// instead of one fixed pair, every (re-)screen ranks the whole
	// event vocabulary with the top-k planner (screen.Plan) and
	// records the K best pairs in Sample.Top. A and B must be empty —
	// a watchlist owns no pair. Watchlists are re-ranked from the same
	// mutation dirty sets as fixed-pair monitors: the retained density
	// cache spans the full vocabulary, so a delta invalidates only its
	// dirty ball and the next ranking reuses every untouched entry.
	TopK int
	// MinOccurrences filters watchlist candidates the way the sweep
	// API does (default 1); fixed-pair monitors must leave it zero.
	MinOccurrences int
}

// Normalize validates the definition and fills defaults in place.
func (d *Definition) Normalize() error {
	switch {
	case d.TopK < 0:
		return fmt.Errorf("monitor: top-k must be >= 0, got %d", d.TopK)
	case d.TopK > 0:
		if d.A != "" || d.B != "" {
			return fmt.Errorf("monitor: a watchlist ranks the whole vocabulary; A and B must be empty")
		}
		if d.MinOccurrences == 0 {
			d.MinOccurrences = 1
		}
		if d.MinOccurrences < 1 {
			return fmt.Errorf("monitor: min occurrences must be >= 1, got %d", d.MinOccurrences)
		}
	default:
		if d.MinOccurrences != 0 {
			return fmt.Errorf("monitor: min occurrences is a watchlist parameter; a fixed pair is screened regardless")
		}
		if d.A == "" || d.B == "" {
			return fmt.Errorf("monitor: both event names are required")
		}
		if d.A == d.B {
			return fmt.Errorf("monitor: a standing query needs two distinct events, got %q twice", d.A)
		}
	}
	// H, n and α are the re-screen's own: its defaults and ranges.
	cfg, err := screen.Config{H: d.H, SampleSize: d.SampleSize, Alpha: d.Alpha}.Normalize()
	if err != nil {
		return fmt.Errorf("monitor: %w", err)
	}
	d.SampleSize, d.Alpha = cfg.SampleSize, cfg.Alpha
	if d.Debounce == 0 {
		d.Debounce = DefaultDebounce
	}
	if d.Debounce < 0 {
		return fmt.Errorf("monitor: debounce must be >= 0, got %v", d.Debounce)
	}
	if d.HistoryCap == 0 {
		d.HistoryCap = DefaultHistory
	}
	if d.HistoryCap < 1 || d.HistoryCap > MaxHistory {
		return fmt.Errorf("monitor: history capacity must be in [1,%d], got %d", MaxHistory, d.HistoryCap)
	}
	return nil
}

// Sample is one completed (re-)screen of a standing query — a history
// ring entry.
type Sample struct {
	// Epoch is the snapshot epoch the whole run was bound to.
	Epoch uint64
	// At is the completion time.
	At time.Time
	// Batches counts the coalesced delta batches this run folded; 0
	// marks the registration-time baseline run.
	Batches int
	// Tau, Z, P, AdjP and Significant are the test outcome (AdjP == P
	// for a single standing pair; the field keeps parity with sweep
	// results). For a watchlist they mirror the top-ranked entry of
	// Top, so dashboards polling Last see the leader without decoding
	// the list. Skipped is non-empty when the pair could not be tested
	// at this epoch (e.g. an event lost all its occurrences).
	Tau, Z, P, AdjP float64
	Significant     bool
	Skipped         string
	// Top is the watchlist ranking at this epoch (Definition.TopK
	// entries, best first); nil for fixed-pair monitors.
	Top []TopPair
	// Reused counts reference-node density evaluations served from the
	// retained cache; Recomputed the h-hop traversals actually paid.
	// Reused / (Reused+Recomputed) is the incremental win the delta's
	// locality bought.
	Reused     int64
	Recomputed int64
	// ElapsedMS is the wall time of the re-screen.
	ElapsedMS float64
}

// TopPair is one ranked entry of a watchlist sample. The p-value is
// raw (planned screens never observe the whole family — see
// docs/SCREENING.md); Significant compares it to the watchlist's α.
type TopPair struct {
	A, B        string
	Tau, Z, P   float64
	Significant bool
}

// State is the persistent image of a monitor: its definition plus the
// history ring (oldest first). The density cache is deliberately not
// part of it — it is rebuilt lazily after a restore, trading one cold
// re-screen for not serializing O(|V|) scratch.
type State struct {
	Def     Definition
	History []Sample
}

// SnapshotFunc yields the monitored graph's current consistent
// snapshot: graph, frozen event store, the epoch stamping both, and the
// pool of BFS engines bound to that graph, which re-screens borrow
// from (nil: each sweep allocates its own engines). Successive calls
// must never observe epochs going backwards.
type SnapshotFunc func() (g *graph.Graph, store *events.Store, epoch uint64, engines *graph.EnginePool)

// pendingDelta is one queued invalidation: the dirty node set of a
// mutation, tagged with the epoch the mutation produces. Deltas are
// queued before their snapshot is published (the serving tier notifies
// inside the serialized mutation path), so a drain only consumes
// entries whose epoch the bound snapshot has caught up to — otherwise
// a re-screen could consume an invalidation whose mutation it cannot
// see yet and leave the cache silently wrong for the next epoch.
type pendingDelta struct {
	epoch uint64
	dirty []graph.NodeID
	all   bool // invalidate everything (fallback when no dirty set is known)
	// batches is the number of mutation batches this entry represents:
	// 1 for a normal notification, 0 for the synthetic catch-all queued
	// at registration (see Manager.add), N for a fold of N batches.
	batches int
}

// weight is what the entry counts toward the queue's fold threshold
// on a graph of n nodes: its dirty nodes (at least one, so the queue's
// length is bounded too), or more than the whole graph for a catch-all.
func (d pendingDelta) weight(n int) int {
	if d.all {
		return n + 1
	}
	return max(1, len(d.dirty))
}

// Monitor is one registered standing query. All methods are safe for
// concurrent use.
type Monitor struct {
	def   Definition
	graph string
	snap  SnapshotFunc
	mgr   *Manager

	// runMu serializes re-screens; the drain under it is the only code
	// that touches the memo, so cache invalidation never races an
	// in-flight evaluation.
	runMu sync.Mutex
	memo  *screen.SharedMemo
	nodes int // the graph's node count, the queue's fold threshold

	mu      sync.Mutex // guards the fields below
	pending []pendingDelta
	batches int // delta batches queued since the last drain
	weight  int // the pending entries' summed weight
	timer   *time.Timer
	closed  bool
	history []Sample
}

// Def returns the monitor's definition.
func (m *Monitor) Def() Definition { return m.def }

// GraphName returns the registry name of the monitored graph.
func (m *Monitor) GraphName() string { return m.graph }

// History returns a copy of the history ring, oldest first.
func (m *Monitor) History() []Sample {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]Sample(nil), m.history...)
}

// Last returns the most recent sample, or false when none exists yet.
func (m *Monitor) Last() (Sample, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.history) == 0 {
		return Sample{}, false
	}
	return m.history[len(m.history)-1], true
}

// Pending returns the number of delta batches queued but not yet
// folded into a re-screen.
func (m *Monitor) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.batches
}

// State snapshots the monitor for persistence.
func (m *Monitor) State() State {
	return State{Def: m.def, History: m.History()}
}

// notify queues a delta and, in Auto mode, arms the debounce timer.
//
// A monitor nobody refreshes must not keep every batch's dirty set
// alive, so once the queued entries hold more dirty nodes than the
// graph has, or one of them is already a catch-all, they fold into one
// catch-all carrying their batch count and largest epoch. Mutations of
// a graph are serialized and notify runs inside them, so every entry
// already queued is at a published epoch. A run that bound an older
// snapshot before the fold resets its memo for the kept catch-all.
func (m *Monitor) notify(d pendingDelta) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if m.weight > m.nodes {
		folded := pendingDelta{all: true}
		for _, q := range m.pending {
			folded.epoch = max(folded.epoch, q.epoch)
			folded.batches += q.batches
		}
		clear(m.pending) // release the folded dirty slices
		m.pending, m.batches, m.weight = m.pending[:0], 0, 0
		m.enqueue(folded)
	}
	m.enqueue(d)
	m.armLocked()
}

// enqueue appends a delta and its tallies; m.mu must be held once the
// monitor is registered.
func (m *Monitor) enqueue(d pendingDelta) {
	m.pending = append(m.pending, d)
	m.batches += d.batches
	m.weight += d.weight(m.nodes)
}

// armLocked starts the debounce timer when Auto mode needs one.
func (m *Monitor) armLocked() {
	if m.def.Mode != Auto || m.timer != nil || m.closed || len(m.pending) == 0 {
		return
	}
	m.timer = time.AfterFunc(m.def.Debounce, func() {
		_, _, _ = m.run(false)
	})
}

// Refresh synchronously drains pending deltas and re-screens. Without
// force it is a no-op (ok == false) when nothing is pending; with
// force it re-screens at the current epoch regardless. It returns the
// last recorded sample when a run happened.
func (m *Monitor) Refresh(force bool) (Sample, bool, error) {
	return m.run(force)
}

// run is one re-screen pass: bind the current snapshot, consume every
// queued delta that snapshot can see, invalidate the memo, re-screen
// once at the snapshot's epoch and record the sample. The sample is
// exact for the epoch it bound even when newer epochs publish while it
// runs: the graph and store are immutable versions, and the memo is
// invalidated only here, under runMu, before the sweep starts. A delta
// for a newer epoch — one not yet published, or one a mutation queued
// during the sweep — stays queued, and the timer re-arms (Auto) to
// fold it into the next pass.
func (m *Monitor) run(force bool) (Sample, bool, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()

	g, store, epoch, engines := m.snap()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Sample{}, false, nil
	}
	var dirty []graph.NodeID
	reset := false
	drained, batches := 0, 0
	queued := m.pending
	m.pending, m.batches, m.weight = nil, 0, 0
	for _, d := range queued {
		// A kept catch-all still resets: it may fold deltas this
		// snapshot can see (see notify).
		reset = reset || d.all
		if d.epoch > epoch {
			m.enqueue(d)
			continue
		}
		drained++
		batches += d.batches
		dirty = append(dirty, d.dirty...)
	}
	m.timer = nil
	m.armLocked() // for the kept deltas; notify arms for later ones
	m.mu.Unlock()

	if drained == 0 && !force {
		return Sample{}, false, nil
	}
	// A watchlist registered against an empty vocabulary has no memo
	// yet (bindMemo builds one when events appear).
	if m.memo != nil {
		if reset {
			m.memo.Reset()
		} else if len(dirty) > 0 {
			m.memo.Invalidate(dirty)
		}
	}
	sample, err := m.rescreen(g, store, epoch, engines, batches)
	if err != nil {
		return Sample{}, false, err
	}
	m.record(sample)
	return sample, true, nil
}

// watches reports whether a mutation of the named event can change the
// monitor's result: a pair watches its two events, a watchlist the
// whole vocabulary.
func (m *Monitor) watches(name string) bool {
	return m.def.TopK > 0 || name == m.def.A || name == m.def.B
}

// rescreen runs one epoch-pinned planned ranking of the monitor's
// candidate list against the retained density cache. A fixed pair is
// the list {A, B} with k = 1: one candidate, so the plan never prunes
// and tests it in one pass, exactly as an exhaustive screen.Run would
// (a one-p-value BH adjustment is the p-value itself). A watchlist is
// every pair of the vocabulary with k = TopK; its cache spans every
// event, so the deltas the drain folded invalidate exactly their
// dirty ball and the planner serves every untouched reference node
// from the cache.
func (m *Monitor) rescreen(g *graph.Graph, store *events.Store, epoch uint64, engines *graph.EnginePool, batches int) (Sample, error) {
	if err := m.bindMemo(g, store); err != nil {
		return Sample{}, err
	}
	start := time.Now()
	pairs, k := [][2]string{{m.def.A, m.def.B}}, 1
	if m.def.TopK > 0 {
		pairs, k = screen.AllPairs(store, m.def.MinOccurrences), m.def.TopK
		if len(pairs) == 0 {
			return Sample{
				Epoch: epoch, At: time.Now(), Batches: batches,
				Skipped: "fewer than two screenable events",
			}, nil
		}
	}
	cfg := screen.PlanConfig{
		Config: screen.Config{
			H:              m.def.H,
			SampleSize:     m.def.SampleSize,
			Alpha:          m.def.Alpha,
			Alternative:    m.def.Alternative,
			MinOccurrences: m.def.MinOccurrences,
			Seed:           m.def.Seed,
			Workers:        1,
			Memo:           m.memo,
			Engines:        engines,
		},
		K: k,
	}
	res, err := screen.Plan(g, store, pairs, cfg)
	if err != nil {
		return Sample{}, err
	}
	sample := Sample{
		Epoch:      epoch,
		At:         time.Now(),
		Batches:    batches,
		Reused:     res.Stats.MemoHits,
		Recomputed: res.Stats.BFSRuns,
		ElapsedMS:  float64(time.Since(start).Microseconds()) / 1000,
	}
	if m.def.TopK > 0 {
		sample.Top = make([]TopPair, len(res.Pairs))
		for i, p := range res.Pairs {
			sample.Top[i] = TopPair{
				A: p.A, B: p.B,
				Tau: p.Tau, Z: p.Z, P: p.P,
				Significant: p.Significant,
			}
		}
	}
	switch {
	case len(res.Pairs) > 0:
		head := res.Pairs[0]
		sample.Tau, sample.Z = head.Tau, head.Z
		sample.P, sample.AdjP = head.P, head.AdjP
		sample.Significant = head.Significant
	case m.def.TopK == 0:
		// One candidate and nothing to prune it against: it was skipped.
		sample.Skipped = res.Skipped[0].Skipped
	default:
		sample.Skipped = "no screenable pair in the vocabulary"
	}
	if m.mgr != nil {
		if batches > 0 {
			m.mgr.reruns.Add(1)
		}
		m.mgr.nodesReused.Add(res.Stats.MemoHits)
	}
	return sample, nil
}

// bindMemo keeps the density cache's vocabulary the one the monitor
// screens: the pair's two events, or a watchlist's whole vocabulary.
// The vocabulary is not fixed at registration: event mutations add and
// drop whole events. The memo's dense count vectors are indexed by its
// vocabulary, so a changed name set forces a cold rebuild (rare for a
// watchlist, never for a pair); occurrence-level changes keep the
// names and reuse it. A watchlist with no events yet has no memo.
func (m *Monitor) bindMemo(g *graph.Graph, store *events.Store) error {
	names := []string{m.def.A, m.def.B}
	if m.def.TopK > 0 {
		names = store.Names()
	}
	names = slices.Sorted(slices.Values(names)) // the memo's order
	if m.memo != nil && slices.Equal(m.memo.Names(), names) {
		return nil
	}
	m.memo = nil
	if len(names) == 0 {
		return nil
	}
	memo, err := screen.NewSharedMemo(g.NumNodes(), names)
	if err != nil {
		return err
	}
	m.memo = memo
	return nil
}

// record appends to the history ring, evicting the oldest entry past
// capacity.
func (m *Monitor) record(s Sample) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.history) >= m.def.HistoryCap {
		n := copy(m.history, m.history[len(m.history)-m.def.HistoryCap+1:])
		m.history = m.history[:n]
	}
	m.history = append(m.history, s)
}

// close marks the monitor dead and stops its timer. Idempotent.
func (m *Monitor) close() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.closed = true
	m.pending = nil
	m.batches = 0
	if m.timer != nil {
		m.timer.Stop()
		m.timer = nil
	}
}

// sortSamples orders restored history by epoch then time, defensively:
// persisted state is already ordered, but the ring invariant (oldest
// first) is cheap to re-establish and load-bearing for Last.
func sortSamples(h []Sample) {
	sort.SliceStable(h, func(i, j int) bool { return h[i].Epoch < h[j].Epoch })
}
