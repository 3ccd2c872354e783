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
// bounded ball. Each re-screen therefore borrows a density memo
// (screen.SharedMemo) that the serving tier keeps and advances by each
// delta's dirty ball (MemoFunc), so every untouched reference-node
// density is served from it. The re-screen is bit-identical to a
// from-scratch screen.Run at the same epoch — the differential tests
// pin score and p-value — because cached entries outside the dirty
// ball provably cannot have changed.
//
// The package itself is a scheduler: history, pending batches and
// timers. Bursts of mutations are debounced per monitor: a batch of B
// deltas inside the coalescing window triggers one re-screen, not B,
// and the history entry records how many batches it folded.
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
	// Manual accumulates batches but re-screens only on an
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
	// a watchlist owns no pair. A watchlist borrows the memo of the
	// whole vocabulary, so the next ranking after a delta reuses every
	// entry outside the delta's dirty ball.
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
	// borrowed memo; Recomputed the h-hop traversals actually paid.
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
// history ring (oldest first). The density memo is not part of it: the
// serving tier keeps it, and after a restore the first re-screen runs
// cold rather than serializing O(|V|) scratch.
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

// MemoFunc lends a re-screen the density memo over the sorted event
// vocabulary names at level h, pinned to the snapshot epoch the
// re-screen bound (screen.SharedMemo.Pin); the re-screen calls release
// when its sweep returns. A nil memo runs the sweep on a memo of its
// own.
type MemoFunc func(names []string, h int, epoch uint64) (memo *screen.SharedMemo, release func())

// pendingDelta is one queued entry: batches mutation batches, the last
// of which publishes epoch. The serving tier notifies before it
// publishes, so a drain only consumes entries whose epoch the bound
// snapshot has caught up to; a newer one stays queued for the next
// run, which must see its batch.
type pendingDelta struct {
	epoch uint64
	// batches is 1 for a notification, N for a fold of N, and 0 for
	// the entry queued at registration (see Manager.add).
	batches int
}

// Monitor is one registered standing query. All methods are safe for
// concurrent use.
type Monitor struct {
	def   Definition
	graph string
	snap  SnapshotFunc
	memo  MemoFunc
	mgr   *Manager

	runMu sync.Mutex // serializes re-screens

	mu      sync.Mutex // guards the fields below
	pending []pendingDelta
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
	n := 0
	for _, d := range m.pending {
		n += d.batches
	}
	return n
}

// State snapshots the monitor for persistence.
func (m *Monitor) State() State {
	return State{Def: m.def, History: m.History()}
}

// notify queues a batch that publishes epoch and, in Auto mode, arms
// the debounce timer. Mutations of a graph are serialized and notify
// runs inside them, so every entry already queued is at a published
// epoch: they fold into one, and the queue never holds more than two.
func (m *Monitor) notify(epoch uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return
	}
	if len(m.pending) > 0 {
		var folded pendingDelta
		for _, q := range m.pending {
			folded.epoch = max(folded.epoch, q.epoch)
			folded.batches += q.batches
		}
		m.pending = append(m.pending[:0], folded)
	}
	m.pending = append(m.pending, pendingDelta{epoch: epoch, batches: 1})
	m.armLocked()
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

// Refresh synchronously drains pending batches and re-screens. Without
// force it is a no-op (ok == false) when nothing is pending; with
// force it re-screens at the current epoch regardless. It returns the
// last recorded sample when a run happened.
func (m *Monitor) Refresh(force bool) (Sample, bool, error) {
	return m.run(force)
}

// run is one re-screen pass: bind the current snapshot, consume every
// queued entry that snapshot can see, re-screen once at the snapshot's
// epoch and record the sample. The sample is exact for the epoch it
// bound even when newer epochs publish while it runs: the graph and
// store are immutable versions, and the borrowed memo is pinned to the
// bound epoch. An entry for a newer epoch — one not yet published, or
// one a mutation queued during the sweep — stays queued, and the timer
// re-arms (Auto) to fold it into the next pass.
func (m *Monitor) run(force bool) (Sample, bool, error) {
	m.runMu.Lock()
	defer m.runMu.Unlock()

	g, store, epoch, engines := m.snap()
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Sample{}, false, nil
	}
	drained, batches := 0, 0
	queued := m.pending
	m.pending = nil
	for _, d := range queued {
		if d.epoch > epoch {
			m.pending = append(m.pending, d)
			continue
		}
		drained++
		batches += d.batches
	}
	m.timer = nil
	m.armLocked() // for the kept entries; notify arms for later ones
	m.mu.Unlock()

	if drained == 0 && !force {
		return Sample{}, false, nil
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
// candidate list on the borrowed density memo. A fixed pair is the
// list {A, B} with k = 1: one candidate, so the plan never prunes and
// tests it in one pass, exactly as an exhaustive screen.Run would (a
// one-p-value BH adjustment is the p-value itself); it borrows the
// memo of its two events. A watchlist is every pair of the vocabulary
// with k = TopK, on the memo of the whole vocabulary.
func (m *Monitor) rescreen(g *graph.Graph, store *events.Store, epoch uint64, engines *graph.EnginePool, batches int) (Sample, error) {
	start := time.Now()
	names := []string{m.def.A, m.def.B}
	pairs, k := [][2]string{{m.def.A, m.def.B}}, 1
	if m.def.TopK > 0 {
		names = store.Names()
		pairs, k = screen.AllPairs(store, m.def.MinOccurrences), m.def.TopK
		if len(pairs) == 0 {
			return Sample{
				Epoch: epoch, At: time.Now(), Batches: batches,
				Skipped: "fewer than two screenable events",
			}, nil
		}
	}
	memo, release := m.memo(slices.Sorted(slices.Values(names)), m.def.H, epoch)
	defer release()
	cfg := screen.PlanConfig{
		Config: screen.Config{
			H:              m.def.H,
			SampleSize:     m.def.SampleSize,
			Alpha:          m.def.Alpha,
			Alternative:    m.def.Alternative,
			MinOccurrences: m.def.MinOccurrences,
			Seed:           m.def.Seed,
			Workers:        1,
			Memo:           memo,
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
