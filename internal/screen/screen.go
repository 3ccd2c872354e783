// Package screen runs TESC over many event pairs at once — the workflow
// behind the paper's case studies (§5.4), where the reported keyword and
// alert pairs are the top findings of a sweep over an attributed graph's
// event vocabulary.
//
// Screening adds two concerns the single-pair test does not have:
// multiple-testing control (hundreds of null pairs at α = 0.05 yield
// dozens of spurious hits; p-values are corrected with
// Benjamini–Hochberg FDR by default) and throughput (pairs are tested
// concurrently by a worker pool, each worker owning private BFS
// machinery).
package screen

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"tesc/internal/events"
	"tesc/internal/graph"
	"tesc/internal/stats"
)

// ErrStaleEpoch reports that the snapshot a sweep was pinned to was
// superseded while the sweep ran: Config.CurrentEpoch no longer
// returns Config.Epoch. The partially computed sweep is discarded —
// some pairs would have been tested against the old version and some
// against states derived after the mutation, a mixed view no caller
// should ever see silently. Callers re-bind a fresh snapshot and rerun
// (the monitor scheduler's drain loop does exactly that).
var ErrStaleEpoch = errors.New("screen: bound snapshot epoch advanced mid-sweep")

// Correction selects the multiple-testing adjustment.
type Correction int

const (
	// FDR applies Benjamini–Hochberg false-discovery-rate control
	// (default).
	FDR Correction = iota
	// FWER applies the Bonferroni family-wise correction.
	FWER
	// None uses raw p-values (single-pair semantics).
	None
)

// Config parameterizes a screening run.
type Config struct {
	// H is the vicinity level.
	H int
	// SampleSize is the per-test reference sample size (default 900).
	SampleSize int
	// Alpha is the significance level applied to adjusted p-values
	// (default 0.05).
	Alpha float64
	// Alternative selects the tested direction for every pair.
	Alternative stats.Alternative
	// MinOccurrences skips events with fewer occurrences (default 1).
	MinOccurrences int
	// Correction selects the p-value adjustment (default FDR).
	Correction Correction
	// Workers bounds test concurrency; 0 means GOMAXPROCS.
	Workers int
	// Seed drives the per-pair reference sampling deterministically.
	Seed uint64
	// Progress, when non-nil, is called after each pair finishes with
	// the number of completed pairs and the total. It is invoked
	// exactly len(pairs) times, once with each done value 1..len(pairs),
	// with no lock held: calls from different workers may overlap and
	// arrive out of order, so a consumer maintaining a gauge should
	// fold with max (the tescd job tracker does). Keeping the callback
	// lock-free keeps workers off each other's critical path on large
	// pair sets.
	Progress func(done, total int)
	// NoMemo disables the cross-pair density memo, forcing every pair
	// to evaluate densities with its own fresh traversals. Reports are
	// bit-identical either way (the differential tests pin both against
	// a test-only reference sweep); the only observable difference is
	// BFSRuns/MemoHits. The memo also disables itself when the dense
	// node × event arrays would exceed the memory budget.
	NoMemo bool
	// Engines, when non-nil, supplies pooled BFS engines bound to g for
	// the samplers and memo evaluators, so back-to-back sweeps and
	// concurrent queries share warm O(|V|) scratch (tescd passes its
	// per-graph-version pool).
	Engines *graph.EnginePool
	// Memo, when non-nil (and NoMemo unset), replaces the per-run
	// density memo with a caller-owned SharedMemo that persists across
	// runs: entries published by earlier sweeps are served instead of
	// re-traversed, provided the caller honored the invalidation
	// contract (see SharedMemo). Every event named by the pair list
	// must be in the memo's vocabulary and the memo's node universe
	// must match g. Result.MemoHits counts only this run's hits.
	Memo *SharedMemo
	// Epoch and CurrentEpoch, when CurrentEpoch is non-nil, pin the
	// sweep to one snapshot version: the sweep re-validates before
	// testing each pair and once more after the last pair, and fails with
	// ErrStaleEpoch as soon as CurrentEpoch() != Epoch — a mutation
	// landed mid-sweep and the caller's (graph, store, memo) view can
	// no longer be assumed internally consistent. Leave CurrentEpoch
	// nil when g and store are immutable for the sweep's lifetime.
	Epoch        uint64
	CurrentEpoch func() uint64
	// Ctx, when non-nil, lets the caller abandon the sweep: workers
	// check it before each pair (like the stale-epoch check), and an
	// in-flight pair checks it at each planner checkpoint and, without
	// the memo, between traversal chunks. A canceled Run discards its
	// partial results and returns an error wrapping the context's
	// cause; Plan instead returns the ranking over the pairs it
	// completed alongside the error (the planner API already models
	// partial results). Nil means run to completion.
	Ctx context.Context
}

// canceled reports the sweep-cancellation error when cfg.Ctx is done,
// else nil. The context's cause is wrapped, so
// errors.Is(err, context.Canceled) and errors.Is(err,
// context.DeadlineExceeded) work on the returned error.
func (cfg Config) canceled() error {
	if cfg.Ctx == nil {
		return nil
	}
	select {
	case <-cfg.Ctx.Done():
		return fmt.Errorf("screen: sweep canceled: %w", context.Cause(cfg.Ctx))
	default:
		return nil
	}
}

// PairResult is one screened pair. Results are ordered by adjusted
// p-value, then |Z| descending.
type PairResult struct {
	A, B        string
	OccA, OccB  int
	Tau         float64
	Z           float64
	P           float64 // raw p-value
	AdjP        float64 // corrected p-value
	Significant bool    // AdjP < Alpha
	Skipped     string  // non-empty when the pair could not be tested
}

// Result is a completed screening run.
type Result struct {
	Pairs    []PairResult
	Tested   int // pairs actually tested
	Skipped  int // pairs skipped (degenerate reference populations, ...)
	Rejected int // significant pairs after correction

	// BFSRuns counts the density-phase h-hop traversals actually
	// performed; MemoHits the density evaluations served from the
	// cross-pair memo instead. Without the memo BFSRuns is the sum of
	// every pair's sample size and MemoHits is 0; with it, each
	// distinct reference node across the whole sweep is traversed once.
	BFSRuns  int64
	MemoHits int64
}

// AllPairs builds the candidate list: every unordered pair of store
// events with at least minOcc occurrences each, in lexicographic
// order. The order is sorted explicitly rather than inherited from
// the store: a deterministic candidate list is load-bearing for the
// planner's priority queue (ties order by position) and for
// reproducible sweeps generally, and must not silently depend on a
// provider's iteration order.
func AllPairs(store *events.Store, minOcc int) [][2]string {
	var names []string
	for _, name := range store.Names() {
		if store.Count(name) >= minOcc {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	var pairs [][2]string
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			pairs = append(pairs, [2]string{names[i], names[j]})
		}
	}
	return pairs
}

// Run screens the given pairs on g using occurrences from store: the
// exhaustive sweep, a plan with k = every pair whose bar never prunes,
// followed by the multiple-testing correction over the whole p-value
// family. Pairs come back ordered by adjusted p-value, then |Z|
// descending, then names; skipped pairs last. Any error — including a
// stale epoch or a cancel that lands after the last pair — returns an
// empty Result.
func Run(g *graph.Graph, store *events.Store, pairs [][2]string, cfg Config) (Result, error) {
	cfg, err := cfg.normalized()
	if err != nil {
		return Result{}, err
	}
	results, st, err := sweep(g, store, pairs, PlanConfig{Config: cfg, K: len(pairs)})
	if err == nil {
		// A cancel landing during the last pair stops no worker, but that
		// pair may have been abandoned mid-density-phase: re-check so a
		// canceled sweep never passes for a complete one.
		err = cfg.canceled()
	}
	if err != nil {
		return Result{}, err
	}

	// correction over the tested pairs only
	ps := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Skipped == "" {
			ps = append(ps, r.P)
		}
	}
	var adj []float64
	switch cfg.Correction {
	case FWER:
		adj = stats.Bonferroni(ps)
	case None:
		adj = ps
	default:
		adj = stats.BenjaminiHochberg(ps)
	}
	out := Result{Pairs: results, Tested: len(ps), Skipped: len(results) - len(ps), BFSRuns: st.BFSRuns, MemoHits: st.MemoHits}
	for i := range results {
		r := &results[i]
		if r.Skipped != "" {
			continue
		}
		r.AdjP, adj = adj[0], adj[1:]
		r.Significant = r.AdjP < cfg.Alpha
		if r.Significant {
			out.Rejected++
		}
	}

	sort.SliceStable(out.Pairs, func(a, b int) bool {
		pa, pb := out.Pairs[a], out.Pairs[b]
		if (pa.Skipped == "") != (pb.Skipped == "") {
			return pa.Skipped == ""
		}
		if pa.AdjP != pb.AdjP {
			return pa.AdjP < pb.AdjP
		}
		za, zb := abs(pa.Z), abs(pb.Z)
		if za != zb {
			return za > zb
		}
		if pa.A != pb.A {
			return pa.A < pb.A
		}
		return pa.B < pb.B
	})
	return out, nil
}

func pairSeed(seed uint64, a, b string) uint64 {
	h := seed ^ 14695981039346656037
	for _, s := range []string{a, "\x00", b} {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= 1099511628211
		}
	}
	return h
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
