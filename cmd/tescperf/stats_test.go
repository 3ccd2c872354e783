package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 5}, {0.9, 9}, {0.95, 10}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Errorf("percentile reordered its input")
	}
	if percentile(nil, 0.5) != 0 {
		t.Errorf("percentile of no samples should be 0")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{5, 1, 3}, 1, 5},
		{[]float64{2, 4}, 1.5, 4.5}, // the exclusive method extrapolates
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSpreadIsIQROverMedian(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	want := (8.25 - 2.75) / 5.5
	if got := spread(xs); math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}

// A run that spends part of its time in a slow state: the whole-run
// median jumps from the fast to the slow latency as the slow share
// crosses one half, while the reported figure moves in proportion to it.
func TestTypicalFollowsTheSlowShare(t *testing.T) {
	run := func(slowSlices int) []float64 {
		lat := make([]float64, 2000) // twenty slices of 100
		for i := range lat {
			lat[i] = 1.0
			if i/100 < slowSlices {
				lat[i] = 1.4
			}
		}
		return lat
	}
	for _, c := range []struct {
		slow      int
		median    float64
		typicalMS float64
	}{{9, 1.0, 1.18}, {10, 1.2, 1.2}, {11, 1.4, 1.22}} {
		lat := run(c.slow)
		if got := median(lat); math.Abs(got-c.median) > 1e-12 {
			t.Errorf("%d slow slices: median = %v, want %v", c.slow, got, c.median)
		}
		if got := typical(lat); math.Abs(got-c.typicalMS) > 1e-12 {
			t.Errorf("%d slow slices: typical = %v, want %v", c.slow, got, c.typicalMS)
		}
	}
	if got := typical([]float64{3, 1, 2}); got != 2 {
		t.Errorf("typical of fewer samples than slices = %v, want the plain median 2", got)
	}
}

// One slow slice of a run moves the run's p99 but not the reported
// tail, which takes the median over ten slices.
func TestTailIgnoresOneSlowSlice(t *testing.T) {
	lat := make([]float64, 1000)
	for i := range lat {
		lat[i] = float64(i%100) / 10 // every slice spans 0..9.9
	}
	if got := tail(lat, 0.99); got != 9.8 {
		t.Errorf("steady tail = %v, want 9.8", got)
	}
	for i := 300; i < 400; i++ {
		lat[i] += 50 // the fourth slice runs slow
	}
	if got := percentile(lat, 0.99); got < 50 {
		t.Errorf("whole-run p99 = %v, expected the slow slice to dominate it", got)
	}
	if got := tail(lat, 0.99); got != 9.8 {
		t.Errorf("tail with one slow slice = %v, want 9.8", got)
	}
	if got := tail([]float64{3, 1, 2}, 0.5); got != 2 {
		t.Errorf("tail of fewer samples than slices = %v, want the plain percentile 2", got)
	}
}
