package bench

import (
	"fmt"
	"math/rand/v2"

	"tesc/internal/core"
	"tesc/internal/graphgen"
	"tesc/internal/simulate"
	"tesc/internal/vicinity"
)

// positiveNoiseGrid and negativeNoiseGrid mirror the x-axes of Figures 5
// and 6 (per vicinity level). The paper's axis ranges differ by h because
// low-level positive and high-level negative correlations are the fragile
// ones (§5.2.1).
var (
	positiveNoiseGrid = map[int][]float64{
		1: {0, 0.1, 0.2, 0.3},
		2: {0, 0.1, 0.2, 0.3},
		3: {0, 0.2, 0.4, 0.6, 0.7},
	}
	negativeNoiseGrid = map[int][]float64{
		1: {0, 0.2, 0.4, 0.6, 0.8, 0.9},
		2: {0, 0.2, 0.4, 0.6, 0.8, 0.9},
		3: {0, 0.1, 0.2, 0.3, 0.4, 0.5},
	}
)

// RunRecallFigure regenerates Figure 5 (positive=true) or Figure 6
// (positive=false): recall of the three reference-node samplers versus
// noise level, one sub-figure per vicinity level h = 1, 2, 3.
func RunRecallFigure(cfg Config, positive bool) ([]Figure, error) {
	g := cfg.DBLP()
	idx, err := vicinity.Build(g, 3, vicinity.Options{Workers: cfg.Workers})
	if err != nil {
		return nil, err
	}
	occ := occurrences(g.NumNodes())

	figID, figName := "fig5", "positive"
	grid := positiveNoiseGrid
	if !positive {
		figID, figName = "fig6", "negative"
		grid = negativeNoiseGrid
	}

	var figures []Figure
	for h := 1; h <= 3; h++ {
		samplers := []core.Sampler{
			&core.BatchBFSSampler{},
			&core.ImportanceSampler{Index: idx},
			&core.WholeGraphSampler{},
		}
		fig := Figure{
			ID:     fmt.Sprintf("%s%c", figID, 'a'+h-1),
			Title:  fmt.Sprintf("recall vs noise, %s pairs, h=%d (DBLP surrogate, %d nodes)", figName, h, g.NumNodes()),
			XLabel: "noise",
			YLabel: "recall",
		}
		for _, s := range samplers {
			series := Series{Name: s.Name()}
			for _, noise := range grid[h] {
				rng := rand.New(rand.NewPCG(cfg.Seed, hashLabels(figID, s.Name(), h, noise)))
				simCfg := simulate.Config{H: h, Occurrences: occ}
				pairs, err := simulate.Batch(g, simCfg, positive, cfg.Pairs, noise, rng)
				if err != nil {
					return nil, fmt.Errorf("bench: %s h=%d noise=%g: %w", figID, h, noise, err)
				}
				r := simulate.EvaluateRecall(g, pairs, simulate.RecallOptions{
					H:          h,
					SampleSize: cfg.SampleSize,
					Alpha:      0.05,
					Sampler:    s,
					Rand:       rng,
				})
				series.X = append(series.X, noise)
				series.Y = append(series.Y, r.Recall())
			}
			fig.Series = append(fig.Series, series)
		}
		figures = append(figures, fig)
	}
	return figures, nil
}

// RunFig7 regenerates Figure 7: recall of batched importance sampling as
// the number of reference nodes drawn per event-node vicinity grows
// (x = 5, 10, 15, 20), for the paper's four event-pair configurations.
func RunFig7(cfg Config) (Figure, error) {
	g := cfg.DBLP()
	idx, err := vicinity.Build(g, 3, vicinity.Options{Workers: cfg.Workers})
	if err != nil {
		return Figure{}, err
	}
	occ := occurrences(g.NumNodes())

	configs := []struct {
		name     string
		h        int
		positive bool
		noise    float64
	}{
		{"pos h=3 noise=0.1", 3, true, 0.1},
		{"pos h=2 noise=0", 2, true, 0},
		{"neg h=3 noise=0", 3, false, 0},
		{"neg h=2 noise=0.5", 2, false, 0.5},
	}
	// the paper sweeps 5..20; the two extra points expose the eventual
	// local-correlation trap on surrogates whose vicinities are larger
	// relative to the graph than DBLP's
	batchSizes := []int{5, 10, 15, 20, 40, 80}

	fig := Figure{
		ID:     "fig7",
		Title:  fmt.Sprintf("batched importance sampling: recall vs nodes sampled per vicinity (DBLP surrogate, %d nodes)", g.NumNodes()),
		XLabel: "k",
		YLabel: "recall",
	}
	for _, c := range configs {
		rng := rand.New(rand.NewPCG(cfg.Seed, hashLabels("fig7", c.name, c.h, c.noise)))
		simCfg := simulate.Config{H: c.h, Occurrences: occ}
		pairs, err := simulate.Batch(g, simCfg, c.positive, cfg.Pairs, c.noise, rng)
		if err != nil {
			return Figure{}, fmt.Errorf("bench: fig7 %s: %w", c.name, err)
		}
		series := Series{Name: c.name}
		for _, k := range batchSizes {
			r := simulate.EvaluateRecall(g, pairs, simulate.RecallOptions{
				H:          c.h,
				SampleSize: cfg.SampleSize,
				Alpha:      0.05,
				Sampler:    &core.ImportanceSampler{Index: idx, BatchSize: k},
				Rand:       rng,
			})
			series.X = append(series.X, float64(k))
			series.Y = append(series.Y, r.Recall())
		}
		fig.Series = append(fig.Series, series)
	}
	return fig, nil
}

// RunFig8 regenerates Figure 8: the impact of graph density on
// noise-free planted correlations. Positive pairs are tested on graphs
// with a growing fraction of edges removed (8a); negative pairs on
// graphs with added edges up to several multiples of the original edge
// count (8b). Pairs are generated on the original graph, tests run on
// the mutated ones, exactly as in §5.2.3.
func RunFig8(cfg Config) ([]Figure, error) {
	g := cfg.DBLP()
	occ := occurrences(g.NumNodes())
	m := g.NumEdges()

	removeFracs := []float64{0, 0.2, 0.4, 0.6, 0.8, 1} // of existing edges
	addFracs := []float64{0, 0.7, 1.4, 3.5, 7, 14}     // multiples of existing edges (paper: up to 5e7 on 3.5e6)

	figA := Figure{
		ID:     "fig8a",
		Title:  fmt.Sprintf("recall of positive pairs vs edges removed (DBLP surrogate, m=%d)", m),
		XLabel: "removed-frac",
		YLabel: "recall",
	}
	figB := Figure{
		ID:     "fig8b",
		Title:  fmt.Sprintf("recall of negative pairs vs edges added (DBLP surrogate, m=%d)", m),
		XLabel: "added-mult",
		YLabel: "recall",
	}

	for h := 1; h <= 3; h++ {
		rng := rand.New(rand.NewPCG(cfg.Seed, hashLabels("fig8", "gen", h, 0)))
		simCfg := simulate.Config{H: h, Occurrences: occ}
		posPairs, err := simulate.Batch(g, simCfg, true, cfg.Pairs, 0, rng)
		if err != nil {
			return nil, err
		}
		negPairs, err := simulate.Batch(g, simCfg, false, cfg.Pairs, 0, rng)
		if err != nil {
			return nil, err
		}

		pos := Series{Name: fmt.Sprintf("positive h=%d", h)}
		for _, frac := range removeFracs {
			mut := graphgen.RemoveOrSame(g, int64(frac*float64(m)), rng)
			r := simulate.EvaluateRecall(mut, posPairs, simulate.RecallOptions{
				H: h, SampleSize: cfg.SampleSize, Alpha: 0.05, Rand: rng,
			})
			pos.X = append(pos.X, frac)
			pos.Y = append(pos.Y, r.Recall())
		}
		figA.Series = append(figA.Series, pos)

		neg := Series{Name: fmt.Sprintf("negative h=%d", h)}
		for _, mult := range addFracs {
			mut := graphgen.AddOrSame(g, int64(mult*float64(m)), rng)
			r := simulate.EvaluateRecall(mut, negPairs, simulate.RecallOptions{
				H: h, SampleSize: cfg.SampleSize, Alpha: 0.05, Rand: rng,
			})
			neg.X = append(neg.X, mult)
			neg.Y = append(neg.Y, r.Recall())
		}
		figB.Series = append(figB.Series, neg)
	}
	return []Figure{figA, figB}, nil
}

// hashLabels derives a deterministic sub-seed from experiment labels.
func hashLabels(parts ...any) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) {
		h ^= uint64(b)
		h *= 1099511628211
	}
	for _, p := range parts {
		for _, b := range []byte(fmt.Sprint(p, "|")) {
			mix(b)
		}
	}
	return h
}
